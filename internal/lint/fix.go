package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FilePatch is the set of edits to apply to one file, with the original
// and patched contents materialized for diffing.
type FilePatch struct {
	// Path is the file path as reported in the findings (usually
	// relative to the run directory).
	Path string
	// Abs is the absolute on-disk path.
	Abs string
	// Before and After are the file contents around the edits.
	Before, After string
	// Applied counts the edits folded in; Skipped counts edits dropped
	// because they overlapped an earlier (later-in-file) edit.
	Applied, Skipped int
}

// BuildPatches folds the Edits carried by findings into per-file
// patches. dir anchors relative finding paths. Suppressed findings
// keep their defects by choice, so their edits are not applied.
// Overlapping edits are applied last-position-first; a later edit
// overlapping one already applied is skipped rather than guessed at.
func BuildPatches(dir string, findings []Finding) ([]*FilePatch, error) {
	type edit struct {
		Edit
		check string
	}
	byFile := make(map[string][]edit)
	for _, f := range findings {
		if f.Suppressed || len(f.Edits) == 0 {
			continue
		}
		for _, e := range f.Edits {
			byFile[f.File] = append(byFile[f.File], edit{Edit: e, check: f.Check})
		}
	}
	files := make([]string, 0, len(byFile))
	for f := range byFile {
		files = append(files, f)
	}
	sort.Strings(files)

	var patches []*FilePatch
	for _, file := range files {
		abs := file
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(dir, file)
		}
		data, err := os.ReadFile(abs)
		if err != nil {
			return nil, fmt.Errorf("lint: fix %s: %w", file, err)
		}
		src := string(data)
		edits := byFile[file]
		// Apply from the end of the file backwards so earlier offsets
		// stay valid.
		sort.Slice(edits, func(i, j int) bool { return edits[i].Start > edits[j].Start })
		p := &FilePatch{Path: file, Abs: abs, Before: src}
		out := src
		lastStart := len(src) + 1
		for _, e := range edits {
			if e.Start < 0 || e.End < e.Start || e.End > len(src) || e.End > lastStart {
				p.Skipped++
				continue
			}
			out = out[:e.Start] + e.New + out[e.End:]
			lastStart = e.Start
			p.Applied++
		}
		p.After = out
		if p.Applied > 0 {
			patches = append(patches, p)
		}
	}
	return patches, nil
}

// WritePatches applies the patches in place.
func WritePatches(patches []*FilePatch) error {
	for _, p := range patches {
		info, err := os.Stat(p.Abs)
		mode := os.FileMode(0o644)
		if err == nil {
			mode = info.Mode().Perm()
		}
		if err := os.WriteFile(p.Abs, []byte(p.After), mode); err != nil {
			return fmt.Errorf("lint: fix %s: %w", p.Path, err)
		}
	}
	return nil
}

// Diff renders the patch as a unified-style line diff (plain line-based
// comparison: shared prefix and suffix lines, then the changed middle as
// one hunk — edits here are local insertions and swaps, which this shape
// presents faithfully).
func (p *FilePatch) Diff() string {
	a := strings.Split(p.Before, "\n")
	b := strings.Split(p.After, "\n")
	pre := 0
	for pre < len(a) && pre < len(b) && a[pre] == b[pre] {
		pre++
	}
	post := 0
	for post < len(a)-pre && post < len(b)-pre && a[len(a)-1-post] == b[len(b)-1-post] {
		post++
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- %s\n+++ %s\n", p.Path, p.Path)
	fmt.Fprintf(&sb, "@@ -%d,%d +%d,%d @@\n", pre+1, len(a)-pre-post, pre+1, len(b)-pre-post)
	// One line of leading context when available.
	if pre > 0 {
		fmt.Fprintf(&sb, " %s\n", a[pre-1])
	}
	for _, line := range a[pre : len(a)-post] {
		fmt.Fprintf(&sb, "-%s\n", line)
	}
	for _, line := range b[pre : len(b)-post] {
		fmt.Fprintf(&sb, "+%s\n", line)
	}
	if post > 0 {
		fmt.Fprintf(&sb, " %s\n", a[len(a)-post])
	}
	return sb.String()
}
