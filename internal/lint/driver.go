package lint

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Analyzers returns the full registered suite, sorted by name.
func Analyzers() []*Analyzer {
	all := []*Analyzer{
		AnalyzerAppendAlias,
		AnalyzerBodyLeak,
		AnalyzerChanDeadlock,
		AnalyzerUnguardedField,
		AnalyzerWgMisuse,
		AnalyzerGoroutineLeak,
		AnalyzerLockBalance,
		AnalyzerLockOrder,
		AnalyzerTelemetryCardinality,
		AnalyzerUncheckedErr,
		AnalyzerWallClock,
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// corpusMarker identifies the golden-file corpus; every analyzer runs on
// packages under it regardless of its AppliesTo scoping, so the corpus
// can exercise subsystem-scoped checks.
const corpusMarker = "/lint/testdata/"

// Result is the outcome of one driver run.
type Result struct {
	// Findings holds every diagnostic, suppressed or not, sorted by
	// file, line, column, and check.
	Findings []Finding
	// Packages counts the packages analyzed.
	Packages int
}

// Unsuppressed returns the findings not matched by an ignore directive.
func (r *Result) Unsuppressed() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// Gating returns the findings that should fail a run: unsuppressed and
// at least min severe.
func (r *Result) Gating(min Severity) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Suppressed || !f.Severity.AtLeast(min) {
			continue
		}
		out = append(out, f)
	}
	return out
}

// Options configures a driver run.
type Options struct {
	// Patterns are package patterns resolved against the run directory
	// ("./..." when empty).
	Patterns []string
	// Analyzers restricts the run to a subset (nil runs the full suite).
	Analyzers []*Analyzer
	// Tests loads and analyzes test packages too. Per-package analyzers
	// opt in via Analyzer.IncludeTests; whole-program analyzers never do.
	Tests bool
}

// RunOpts loads the packages matched by opts.Patterns (resolved against
// dir) and analyzes them: one Loader.Load followed by one Analyze.
func RunOpts(dir string, opts Options) (*Result, error) {
	loader := &Loader{Dir: dir, Tests: opts.Tests}
	pkgs, err := loader.Load(opts.Patterns)
	if err != nil {
		return nil, err
	}
	return Analyze(loader, pkgs, opts.Analyzers)
}

// Analyze runs the given analyzers (the full suite when nil) over
// packages already loaded by loader. It reads the packages without
// changing them, so one load can serve any number of Analyze calls. File paths in findings
// are reported relative to the loader's directory when possible.
// Packages are analyzed in parallel, one goroutine per package over the
// loader's shared type-check cache.
func Analyze(loader *Loader, pkgs []*Package, analyzers []*Analyzer) (*Result, error) {
	fullSuite := analyzers == nil
	if fullSuite {
		analyzers = Analyzers()
	}
	res := &Result{Packages: len(pkgs)}

	// Build the whole-module view once when any selected analyzer is
	// interprocedural.
	var prog *Program
	for _, a := range analyzers {
		if a.RunProgram != nil {
			prog = buildProgram(loader.Fset(), pkgs)
			break
		}
	}

	// Program analyzers run once, sequentially; their findings are routed
	// to the owning package so suppression directives apply uniformly.
	extra := make(map[*Package][]Finding)
	if prog != nil {
		fileOwner := make(map[string]*Package)
		for _, pkg := range pkgs {
			if pkg.IsTest {
				continue
			}
			for _, f := range pkg.Files {
				fileOwner[loader.Fset().Position(f.Pos()).Filename] = pkg
			}
		}
		for _, a := range analyzers {
			if a.RunProgram == nil {
				continue
			}
			var programFindings []Finding
			a.RunProgram(&ProgramPass{Analyzer: a, Prog: prog, findings: &programFindings})
			for _, f := range programFindings {
				if owner := fileOwner[f.File]; owner != nil {
					extra[owner] = append(extra[owner], f)
				} else {
					res.Findings = append(res.Findings, f)
				}
			}
		}
	}

	perPkg := make([][]Finding, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			perPkg[i] = analyzePackage(loader, pkg, analyzers, fullSuite, prog, extra[pkg])
		}(i, pkg)
	}
	wg.Wait()
	for _, fs := range perPkg {
		res.Findings = append(res.Findings, fs...)
	}

	for i := range res.Findings {
		if rel, err := filepath.Rel(loader.Dir, res.Findings[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			res.Findings[i].File = rel
		}
	}
	sortFindings(res.Findings)
	return res, nil
}

// analyzePackage runs the applicable analyzers over one package and
// resolves suppression directives. Stale-directive detection only runs
// with the full suite: a subset run cannot tell a stale directive from
// one covering a disabled check. Test packages only see analyzers that
// opted in via IncludeTests.
func analyzePackage(loader *Loader, pkg *Package, analyzers []*Analyzer, fullSuite bool, prog *Program, extra []Finding) []Finding {
	findings := append([]Finding(nil), extra...)
	report := func(f Finding) { findings = append(findings, f) }

	inCorpus := strings.Contains(filepath.ToSlash(pkg.Dir), corpusMarker)
	ranAll := true
	for _, a := range analyzers {
		if a.Run == nil {
			// Program analyzers already ran globally; their findings for
			// this package arrived via extra. They skip test packages.
			if pkg.IsTest || prog == nil {
				ranAll = false
			}
			continue
		}
		if pkg.IsTest && !a.IncludeTests {
			ranAll = false
			continue
		}
		if !inCorpus && a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     loader.Fset(),
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Path:     pkg.Path,
			findings: &findings,
		}
		a.Run(pass)
	}

	var directives []directive
	for _, f := range pkg.Files {
		directives = append(directives, collectDirectives(loader.Fset(), f, report)...)
	}
	staleReport := report
	if !fullSuite || inCorpus || !ranAll {
		staleReport = nil
	}
	applyDirectives(findings, directives, staleReport)
	return findings
}

// sortFindings orders findings for stable output.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// SelectAnalyzers filters the suite down to the named checks.
func SelectAnalyzers(names string) ([]*Analyzer, error) {
	if names == "" {
		return nil, nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}
