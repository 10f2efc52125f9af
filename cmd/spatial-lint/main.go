// Command spatial-lint runs SPATIAL's project-specific static-analysis
// suite (internal/lint) over the repository: telemetry label-cardinality
// bounds, goroutine lifecycle hygiene, unchecked I/O errors on the server
// edges, wall-clock bypasses of internal/clock, the flow-sensitive checks
// (lock balance, response-body leaks, lost and diverged appends) built on
// the CFG dataflow engine, and the interprocedural checks (lock-order
// cycles, unguarded fields, one-sided channels, WaitGroup Adds inside the
// awaited goroutine) built on the whole-module call graph. `-list` prints
// the checks.
//
// Usage:
//
//	spatial-lint [flags] [patterns...]
//
// Patterns default to "./...". Exit status is 0 when no gating findings
// exist, 1 when findings remain, 2 on usage or load errors. A finding
// gates the run when it is unsuppressed and at least -fail-on severe.
//
// The only waiver is inline:
//
//	//lint:ignore check-name reason
//
// on the offending line or the line above it (comma-separate several
// check names to waive more than one).
//
// -sarif exports the run as SARIF 2.1.0 for CI annotation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	var (
		jsonOut    = flag.Bool("json", false, "emit findings as JSON")
		checks     = flag.String("checks", "", "comma-separated subset of checks to run (default all)")
		list       = flag.Bool("list", false, "list available checks and exit")
		suppressed = flag.Bool("suppressed", false, "also print suppressed findings (with their reasons)")
		dir        = flag.String("dir", ".", "directory patterns are resolved against")
		tests      = flag.Bool("tests", true, "also analyze test files (checks opt in individually)")
		failOn     = flag.String("fail-on", "warn", "minimum severity that fails the run: error, warn, or info")
		sarifOut   = flag.String("sarif", "", "write the run as SARIF 2.1.0 to this file (\"-\" for stdout)")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-22s [%s] %s\n", a.Name, a.EffectiveSeverity(), a.Doc)
		}
		return
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	minSev := lint.Severity(*failOn)
	switch minSev {
	case lint.SeverityError, lint.SeverityWarn, lint.SeverityInfo:
	default:
		fail(fmt.Errorf("spatial-lint: -fail-on must be error, warn, or info (got %q)", *failOn))
	}

	analyzers, err := lint.SelectAnalyzers(*checks)
	if err != nil {
		fail(err)
	}

	res, err := lint.RunOpts(*dir, lint.Options{
		Patterns:  flag.Args(),
		Analyzers: analyzers,
		Tests:     *tests,
	})
	if err != nil {
		fail(err)
	}

	if *sarifOut != "" {
		out := os.Stdout // "-"
		if *sarifOut != "-" {
			if out, err = os.Create(*sarifOut); err != nil {
				fail(err)
			}
		}
		if err := res.WriteSARIF(out); err != nil {
			fail(err)
		}
		if out != os.Stdout {
			if err := out.Close(); err != nil {
				fail(err)
			}
		}
	}

	gating := res.Gating(minSev)
	if *jsonOut {
		out := struct {
			Findings   []lint.Finding `json:"findings"`
			Suppressed int            `json:"suppressed"`
			Packages   int            `json:"packages"`
		}{res.Findings, 0, res.Packages}
		for _, f := range res.Findings {
			if f.Suppressed {
				out.Suppressed++
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
	} else {
		nSupp := 0
		for _, f := range res.Findings {
			if f.Suppressed {
				nSupp++
				if *suppressed {
					fmt.Printf("%s (suppressed: %s)\n", f, f.SuppressReason)
				}
				continue
			}
			fmt.Println(f)
		}
		fmt.Fprintf(os.Stderr, "spatial-lint: %d packages, %d gating findings (%d suppressed)\n",
			res.Packages, len(gating), nSupp)
	}
	if len(gating) > 0 {
		os.Exit(1)
	}
}
