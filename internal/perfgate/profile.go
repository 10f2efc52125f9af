package perfgate

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

// FuncProfile locates one hot-set function in the sources: where it is,
// which lines are its data loops, which parameters it declares, and how
// it is reached from the serving entry points. Profiles are the join key
// between the call graph (what runs per served instance) and the
// compiler diagnostics (what the optimizer did about it).
type FuncProfile struct {
	// Full is the manifest key: types.Func.FullName for declarations,
	// with a "$n" suffix for function literals.
	Full string
	// Name is the short display name ("ml.(*Forest).PredictProbaBatch").
	Name string
	// File is module-root-relative; DeclLine..EndLine spans the whole
	// declaration (or literal), 1-based inclusive.
	File     string
	DeclLine int
	EndLine  int
	// Params are the declared parameter names, receiver first when there
	// is one. Unnamed and blank parameters are omitted (they cannot
	// escape by name).
	Params []string
	// Loops are the data-loop line spans inside the body (nested
	// literals excluded — they profile separately).
	Loops []lint.Span
	// PerIter and Entry carry the hot-set context: does the function run
	// once per served instance, and which entry point reaches it.
	PerIter bool
	Entry   string
	// PkgPath is the import path the function lives in.
	PkgPath string
}

// DefaultEntry is the gate's entry predicate: the serving tier's
// exported Predict* handlers, the ml batch kernels themselves (the
// kernels are also reachable via CHA from serving, but naming them
// directly keeps the gate meaningful even if the serving tier's
// dispatch changes shape), the cluster tier's routing hot paths (ring
// lookup and replica pick, which run once per proxied request), and the
// wire layer's predict codec (the number scanner and the matrix loop run
// once per value of every request body).
func DefaultEntry(n *lint.Node) bool {
	return lint.ServingEntry(n) || lint.KernelEntry(n) || lint.ClusterEntry(n) || lint.WireEntry(n)
}

// ProfileOptions configures hot-profile construction.
type ProfileOptions struct {
	// Packages restricts profiles to functions living in import paths
	// with one of these suffixes — the packages whose diagnostics are
	// harvested. Hot functions elsewhere (telemetry counters, registry
	// lookups) stay out of the manifest.
	Packages []string
	// Entry selects the hot-set roots (DefaultEntry when nil).
	Entry func(*lint.Node) bool
}

// BuildProfiles loads the module rooted at modRoot, builds the
// interprocedural call graph, computes the hot set, and returns one
// profile per hot function inside the harvested packages, sorted by
// Full name.
func BuildProfiles(modRoot string, opts ProfileOptions) ([]FuncProfile, error) {
	loader := &lint.Loader{Dir: modRoot}
	pkgs, err := loader.Load([]string{"./..."})
	if err != nil {
		return nil, err
	}
	prog := lint.BuildProgram(loader.Fset(), pkgs)
	entry := opts.Entry
	if entry == nil {
		entry = DefaultEntry
	}
	hot := prog.HotSet(entry)
	if len(hot.Entries) == 0 {
		return nil, fmt.Errorf("perfgate: no hot-set entry points found (is the serving tier loadable?)")
	}

	inScope := func(path string) bool {
		if len(opts.Packages) == 0 {
			return true
		}
		for _, p := range opts.Packages {
			if strings.HasSuffix(path, strings.TrimPrefix(p, "./")) {
				return true
			}
		}
		return false
	}

	var out []FuncProfile
	for _, hf := range hot.Funcs() {
		n := hf.Node
		if n.Body() == nil || !inScope(n.Pkg.Path) {
			continue
		}
		start := prog.Fset.Position(n.Pos())
		end := prog.Fset.Position(n.Body().End())
		file := start.Filename
		if rel, err := filepath.Rel(modRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		p := FuncProfile{
			Full:     n.FullName(),
			Name:     n.Name,
			File:     file,
			DeclLine: start.Line,
			EndLine:  end.Line,
			Params:   paramNames(n),
			Loops:    prog.DataLoopSpans(n),
			PerIter:  hf.PerIter,
			Entry:    hf.Entry.Name,
			PkgPath:  n.Pkg.Path,
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Full < out[j].Full })
	return out, nil
}

// paramNames lists the declared receiver and parameter names.
func paramNames(n *lint.Node) []string {
	ft := n.FuncType()
	if ft == nil {
		return nil
	}
	var out []string
	if n.Decl != nil && n.Decl.Recv != nil {
		for _, f := range n.Decl.Recv.List {
			for _, name := range f.Names {
				if name.Name != "_" {
					out = append(out, name.Name)
				}
			}
		}
	}
	if ft.Params != nil {
		for _, f := range ft.Params.List {
			for _, name := range f.Names {
				if name.Name != "_" {
					out = append(out, name.Name)
				}
			}
		}
	}
	return out
}
