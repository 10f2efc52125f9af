package perfgate

import (
	"fmt"
	"sort"
)

// Violation is one broken contract.
type Violation struct {
	// Kind classifies the break: "must-inline", "param-escape",
	// "loop-alloc", "bounds-check", "missing-contract", "stale-contract",
	// "toolchain" (report-only).
	Kind string `json:"kind"`
	Func string `json:"func"`
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
	// Gating is false for advisory violations (toolchain drift).
	Gating  bool   `json:"gating"`
	Message string `json:"message"`
}

func (v Violation) String() string {
	loc := v.File
	if v.Line > 0 {
		loc = fmt.Sprintf("%s:%d", v.File, v.Line)
	}
	if loc != "" {
		loc += ": "
	}
	return fmt.Sprintf("%s%s: [%s] %s", loc, v.Func, v.Kind, v.Message)
}

// CheckManifest verifies the observed optimization state against the
// committed contracts. Violations come back sorted by file, line, and
// function for stable reports.
func CheckManifest(m *Manifest, obs []Observation, toolchain string) []Violation {
	var out []Violation
	drifted := m.Toolchain != "" && toolchain != "" && m.Toolchain != toolchain
	if drifted {
		out = append(out, Violation{
			Kind:    "toolchain",
			Gating:  false,
			Message: fmt.Sprintf("manifest recorded under %s, current compiler is %s; regenerate with -write-manifest if contracts drift", m.Toolchain, toolchain),
		})
	}

	seen := make(map[string]bool, len(obs))
	for _, o := range obs {
		seen[o.Profile.Full] = true
		c := m.Functions[o.Profile.Full]
		if c == nil {
			out = append(out, Violation{
				Kind: "missing-contract", Func: o.Profile.Name,
				File: o.Profile.File, Line: o.Profile.DeclLine, Gating: true,
				Message: "hot-set function has no contract; review and regenerate with -write-manifest",
			})
			continue
		}
		out = append(out, checkOne(c, o)...)
	}
	for full, c := range m.Functions {
		if !seen[full] {
			out = append(out, Violation{
				Kind: "stale-contract", Func: full, File: c.File, Gating: true,
				Message: "contracted function no longer exists or left the hot set; regenerate with -write-manifest",
			})
		}
	}
	// Contracts are promises about one compiler's decisions; a different
	// gc release inlines and escapes differently, so under a drifted
	// toolchain every finding is advisory — the fix is a reviewed
	// regenerate, not a red build on an unrelated machine.
	if drifted {
		for i := range out {
			out[i].Gating = false
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.Kind < b.Kind
	})
	return out
}

// checkOne verifies a single function's contract.
func checkOne(c *Contract, o Observation) []Violation {
	var out []Violation
	p := o.Profile
	if c.Inline == "must" && !o.CanInline {
		reason := o.InlineReason
		if reason == "" {
			reason = "no inlining verdict at the declaration"
		}
		out = append(out, Violation{
			Kind: "must-inline", Func: p.Name, File: p.File, Line: p.DeclLine, Gating: true,
			Message: fmt.Sprintf("contract requires inlining but the compiler declined: %s", reason),
		})
	}
	if len(c.NoEscapeParams) > 0 {
		escaping := make(map[string]bool, len(o.EscapingParams))
		for _, e := range o.EscapingParams {
			escaping[e] = true
		}
		for _, param := range c.NoEscapeParams {
			if escaping[param] {
				out = append(out, Violation{
					Kind: "param-escape", Func: p.Name, File: p.File, Line: p.DeclLine, Gating: true,
					Message: fmt.Sprintf("parameter %q now escapes to the heap (contract: must not escape) — one allocation per call on the hot path", param),
				})
			}
		}
	}
	if len(o.LoopAllocs) > c.MaxLoopAllocs {
		v := Violation{
			Kind: "loop-alloc", Func: p.Name, File: p.File, Line: p.DeclLine, Gating: true,
			Message: fmt.Sprintf("%d heap allocation site(s) inside data loops, contract allows %d", len(o.LoopAllocs), c.MaxLoopAllocs),
		}
		if len(o.LoopAllocs) > 0 {
			d := o.LoopAllocs[0]
			v.Line = d.Line
			v.Message += fmt.Sprintf("; first at %s:%d (%s)", d.File, d.Line, firstLine(d.Message))
		}
		out = append(out, v)
	}
	if len(o.LoopBounds) > c.MaxBoundsChecks {
		v := Violation{
			Kind: "bounds-check", Func: p.Name, File: p.File, Line: p.DeclLine, Gating: true,
			Message: fmt.Sprintf("%d un-eliminated bounds check(s) inside data loops, contract allows %d", len(o.LoopBounds), c.MaxBoundsChecks),
		}
		if len(o.LoopBounds) > 0 {
			d := o.LoopBounds[0]
			v.Line = d.Line
			v.Message += fmt.Sprintf("; first at %s:%d", d.File, d.Line)
		}
		out = append(out, v)
	}
	return out
}

// Gating counts the violations that should fail the build.
func Gating(vs []Violation) int {
	n := 0
	for _, v := range vs {
		if v.Gating {
			n++
		}
	}
	return n
}

// firstLine truncates multi-line compiler messages for reports.
func firstLine(s string) string {
	for i, r := range s {
		if r == '\n' {
			return s[:i]
		}
	}
	return s
}
