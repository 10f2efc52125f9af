package perfgate

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Manifest is the committed .perf-manifest.json: one optimization
// contract per hot-set function, plus the allocation budgets the
// AllocsPerRun tests assert. It is a ratchet, regenerated with
// -write-manifest from the observed state and reviewed like any diff —
// the gate then fails any build where the compiler does worse than the
// committed promise (a lost inline, a new param escape, an extra heap
// allocation or bounds check inside a data loop).
type Manifest struct {
	// Toolchain records the gc version the contracts were observed
	// under. Inlining budgets and escape analysis change across
	// releases; the checker reports (never gates) a mismatch so a
	// toolchain upgrade prompts a regenerate instead of a false failure.
	Toolchain string `json:"toolchain"`
	// Functions maps lint full names to contracts.
	Functions map[string]*Contract `json:"functions"`
	// AllocBudgets maps predict-path names ("forest/serial", ...) to the
	// allocation budgets internal/ml's perf tests assert with
	// testing.AllocsPerRun. The generator carries them over verbatim;
	// they are maintained by review, not observation.
	AllocBudgets map[string]*AllocBudget `json:"allocBudgets,omitempty"`
}

// Contract is one function's committed optimization promises.
type Contract struct {
	// File locates the function (module-root relative) for reports.
	File string `json:"file"`
	// Entry is the hot-set entry point that reaches the function, and
	// PerIter whether it runs once per served instance (provenance for
	// reviewers; not checked).
	Entry   string `json:"entry,omitempty"`
	PerIter bool   `json:"perIter,omitempty"`
	// Inline is "must" when the compiler proved the function inlinable
	// and the gate should keep it that way, "any" when inlining is not
	// promised (large kernels are never inlinable and never need to be).
	Inline string `json:"inline"`
	// NoEscapeParams are parameters (receiver included) the escape
	// analysis proved heap-clean; any of them escaping later is a
	// regression (a new allocation per call).
	NoEscapeParams []string `json:"noEscapeParams,omitempty"`
	// MaxLoopAllocs bounds heap-allocation sites inside the function's
	// data loops; MaxBoundsChecks bounds surviving bounds checks there.
	// Zero is the common (and strictest) promise for kernels.
	MaxLoopAllocs   int `json:"maxLoopAllocs"`
	MaxBoundsChecks int `json:"maxBoundsChecks"`
}

// AllocBudget is one predict path's allocation ceiling, asserted by
// internal/ml's TestPredictAllocBudgets via testing.AllocsPerRun.
type AllocBudget struct {
	// Func names the kernel the budget polices (manifest key form).
	Func string `json:"func"`
	// MaxAllocsPerOp is the ceiling per predict call (serial paths) or
	// per batch call (batched paths).
	MaxAllocsPerOp float64 `json:"maxAllocsPerOp"`
	Note           string  `json:"note,omitempty"`
}

// LoadManifest reads a committed manifest.
func LoadManifest(path string) (*Manifest, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("perfgate: %s: %w", path, err)
	}
	if m.Functions == nil {
		m.Functions = make(map[string]*Contract)
	}
	return &m, nil
}

// Save writes the manifest with sorted keys, two-space indent, and a
// trailing newline — repeated generation on the same toolchain is
// byte-identical (encoding/json sorts map keys; every slice field is
// sorted by the generator).
func (m *Manifest) Save(path string) error {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Generate builds a manifest from the observed state: every observed
// promise becomes a contract at exactly the observed level (inlinable →
// must-inline, clean params → must-stay-clean, N loop allocations → at
// most N). prev, when non-nil, contributes the hand-maintained
// AllocBudgets section, which observation cannot produce.
func Generate(obs []Observation, toolchain string, prev *Manifest) *Manifest {
	m := &Manifest{
		Toolchain: toolchain,
		Functions: make(map[string]*Contract, len(obs)),
	}
	if prev != nil && len(prev.AllocBudgets) > 0 {
		m.AllocBudgets = prev.AllocBudgets
	}
	for _, o := range obs {
		c := &Contract{
			File:            o.Profile.File,
			Entry:           o.Profile.Entry,
			PerIter:         o.Profile.PerIter,
			Inline:          "any",
			MaxLoopAllocs:   len(o.LoopAllocs),
			MaxBoundsChecks: len(o.LoopBounds),
		}
		if o.CanInline {
			c.Inline = "must"
		}
		var clean []string
		escaping := make(map[string]bool, len(o.EscapingParams))
		for _, p := range o.EscapingParams {
			escaping[p] = true
		}
		for _, p := range o.Profile.Params {
			if !escaping[p] {
				clean = append(clean, p)
			}
		}
		sort.Strings(clean)
		c.NoEscapeParams = clean
		m.Functions[o.Profile.Full] = c
	}
	return m
}
