package perfgate

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Report is the machine-readable outcome of a perfgate run, uploaded as
// a CI artifact next to the SARIF lint findings.
type Report struct {
	Tool      string `json:"tool"`
	Toolchain string `json:"toolchain,omitempty"`
	// Functions counts profiled hot-set functions; Contracts the
	// manifest entries they were checked against.
	Functions int `json:"functions,omitempty"`
	Contracts int `json:"contracts,omitempty"`
	// Violations are the static contract breaks (empty on a clean run).
	Violations []Violation `json:"violations"`
	// Pass is the overall gate verdict.
	Pass bool `json:"pass"`
}

// Write renders the report as indented JSON at path.
func (r *Report) Write(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Print renders a human summary to w.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "perfgate: %d hot-set functions, %d contracts (%s)\n", r.Functions, r.Contracts, r.Toolchain)
	for _, v := range r.Violations {
		tag := "FAIL"
		if !v.Gating {
			tag = "note"
		}
		fmt.Fprintf(w, "  %s %s\n", tag, v)
	}
	if r.Pass {
		fmt.Fprintln(w, "perfgate: PASS")
	} else {
		fmt.Fprintln(w, "perfgate: FAIL")
	}
}
