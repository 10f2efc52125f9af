// Package perfgate verifies the serving hot path's performance
// contracts statically, from the compiler's own optimization decisions.
//
// It harvests the gc compiler's LSP-style JSON diagnostics
// (`go build -gcflags=<pkg>=-json=0,<dir>`): escape-analysis verdicts,
// inlining decisions, and surviving bounds checks. It then reuses
// internal/lint's interprocedural call graph to compute the hot set —
// every function reachable from the serving Predict* entry points and
// the ml batch kernels — and checks each hot function against a
// committed .perf-manifest.json contract: must-inline, params
// must-not-escape, at most N heap allocations inside data loops, at
// most N un-eliminated bounds checks in kernel inner loops. A function
// that loses an optimization the manifest promised (a new escape, a
// lost inline, a fresh bounds check) fails the build before any
// benchmark could measure the regression.
//
// The package measures nothing: speed is judged by `go run ./bench` on
// the parent commit and the change in one session (DESIGN §8).
package perfgate

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Diag is one compiler optimization diagnostic, positions 1-based (the
// gc -json emitter matches token.Position, not raw LSP).
type Diag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Diagnostic codes the gate consumes (go1.22-go1.24 emit these names).
const (
	CodeCanInline    = "canInlineFunction"
	CodeCannotInline = "cannotInlineFunction"
	CodeInlineCall   = "inlineCall"
	CodeEscape       = "escape"  // value escapes to heap (allocation site)
	CodeEscapes      = "escapes" // older spelling of the same verdict
	CodeLeak         = "leak"    // parameter leaks (to heap, result, ...)
	CodeIsInBounds   = "isInBounds"
	CodeIsSliceIn    = "isSliceInBounds"
)

// DiagSet is one harvest: every optimization diagnostic for the built
// packages, grouped by module-root-relative file path, plus the
// toolchain that produced them (contracts are toolchain-scoped — a
// compiler upgrade may legitimately change inlining costs, and the
// manifest records which gc version its promises were made against).
type DiagSet struct {
	Toolchain string
	ByFile    map[string][]Diag
}

// lspRecord is the on-disk shape of one gc -json diagnostic line.
type lspRecord struct {
	// Header fields (first line of each per-source-file .json).
	Version   *int   `json:"version,omitempty"`
	SourceTop string `json:"file,omitempty"`
	GCVersion string `json:"gc_version,omitempty"`
	// Diagnostic fields.
	Range struct {
		Start struct {
			Line      int `json:"line"`
			Character int `json:"character"`
		} `json:"start"`
	} `json:"range"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Harvest compiles pkgs (package patterns relative to modRoot, e.g.
// "./internal/ml") with -json optimization logging and parses the
// result. A fresh temp directory per call changes the flag value, which
// defeats the build cache — every harvest reflects the sources on disk,
// not a stale cached object.
func Harvest(modRoot string, pkgs []string) (*DiagSet, error) {
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("perfgate: no packages to harvest")
	}
	tmp, err := os.MkdirTemp("", "perfgate-diag-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	args := []string{"build"}
	for _, p := range pkgs {
		args = append(args, fmt.Sprintf("-gcflags=%s=-json=0,%s", p, tmp))
	}
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = modRoot
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("perfgate: go build failed: %v\n%s", err, stderr.String())
	}
	return parseDiagDir(tmp, modRoot)
}

// parseDiagDir walks a -json output directory (one subdirectory per
// package, one .json per source file) and collects every diagnostic.
func parseDiagDir(dir, modRoot string) (*DiagSet, error) {
	set := &DiagSet{ByFile: make(map[string][]Diag)}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		srcFile := ""
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var rec lspRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return fmt.Errorf("perfgate: %s: %w", path, err)
			}
			if rec.Version != nil { // header line
				if *rec.Version != 0 {
					return fmt.Errorf("perfgate: %s: unsupported -json version %d", path, *rec.Version)
				}
				srcFile = rec.SourceTop
				if rel, err := filepath.Rel(modRoot, srcFile); err == nil && !strings.HasPrefix(rel, "..") {
					srcFile = filepath.ToSlash(rel)
				}
				if rec.GCVersion != "" {
					set.Toolchain = rec.GCVersion
				}
				continue
			}
			if srcFile == "" {
				return fmt.Errorf("perfgate: %s: diagnostic before header", path)
			}
			set.ByFile[srcFile] = append(set.ByFile[srcFile], Diag{
				File:    srcFile,
				Line:    rec.Range.Start.Line,
				Col:     rec.Range.Start.Character,
				Code:    rec.Code,
				Message: rec.Message,
			})
		}
		return sc.Err()
	})
	if err != nil {
		return nil, err
	}
	for _, ds := range set.ByFile {
		sortDiags(ds)
	}
	return set, nil
}

// sortDiags orders diagnostics deterministically (the walk order of the
// output directory is already stable, but the contract generator must
// not depend on it).
func sortDiags(ds []Diag) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Message < b.Message
	})
}
