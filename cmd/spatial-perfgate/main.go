// Command spatial-perfgate verifies the serving hot path's performance
// contracts, with the compiler as the witness: harvest gc's own
// optimization diagnostics (go build -gcflags=<pkg>=-json=0,<dir>),
// compute the hot set — every function reachable from the serving
// Predict* entry points, the ml batch kernels and the cluster routing
// paths, via internal/lint's interprocedural call graph — and check each
// hot function against its committed .perf-manifest.json contract
// (must-inline, params must-not-escape, bounded heap allocations and
// bounds checks inside data loops). A lost optimization fails the build
// before any benchmark could measure it.
//
// It runs no benchmark and compares no timings: speed is judged by
// `go run ./bench` on the parent commit and the change in one session.
//
// Usage:
//
//	spatial-perfgate -report perfgate-report.json
//	spatial-perfgate -write-manifest
//
// Exit status: 0 when every contract holds, 1 on gate failure, 2 on
// usage or harness errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
	"repro/internal/perfgate"
)

// hotPackages are the packages whose diagnostics are harvested and whose
// hot functions carry contracts: the kernels, the serving runtime, the
// cluster routing path and the predict codec.
var hotPackages = []string{"./internal/ml", "./internal/serving", "./internal/mat", "./internal/cluster", "./internal/wire"}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("spatial-perfgate", flag.ContinueOnError)
	manifestPath := fs.String("manifest", ".perf-manifest.json", "committed contract file")
	writeManifest := fs.Bool("write-manifest", false, "regenerate the manifest from the observed state and exit")
	reportPath := fs.String("report", "", "write a machine-readable JSON report here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	pass, err := gate(*manifestPath, *writeManifest, *reportPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spatial-perfgate:", err)
		return 2
	}
	if !pass {
		return 1
	}
	return 0
}

// gate harvests diagnostics, profiles the hot set, and either
// regenerates the manifest or checks it and reports. The bool is false
// when a gating contract is violated; the error is a harness failure.
func gate(manifestPath string, write bool, reportPath string) (bool, error) {
	modRoot, err := lint.ModuleRoot(".")
	if err != nil {
		return false, err
	}
	diags, err := perfgate.Harvest(modRoot, hotPackages)
	if err != nil {
		return false, err
	}
	profiles, err := perfgate.BuildProfiles(modRoot, perfgate.ProfileOptions{Packages: hotPackages})
	if err != nil {
		return false, err
	}
	obs := perfgate.Observe(profiles, diags)

	if write {
		var prev *perfgate.Manifest
		if m, err := perfgate.LoadManifest(manifestPath); err == nil {
			prev = m
		} else if !os.IsNotExist(err) {
			return false, err
		}
		m := perfgate.Generate(obs, diags.Toolchain, prev)
		if err := m.Save(manifestPath); err != nil {
			return false, err
		}
		fmt.Printf("spatial-perfgate: wrote %s (%d contracts, %s)\n", manifestPath, len(m.Functions), diags.Toolchain)
		return true, nil
	}

	manifest, err := perfgate.LoadManifest(manifestPath)
	if err != nil {
		return false, fmt.Errorf("%w (generate one with -write-manifest)", err)
	}
	report := &perfgate.Report{
		Tool:       "spatial-perfgate",
		Toolchain:  diags.Toolchain,
		Functions:  len(obs),
		Contracts:  len(manifest.Functions),
		Violations: perfgate.CheckManifest(manifest, obs, diags.Toolchain),
	}
	report.Pass = perfgate.Gating(report.Violations) == 0
	if reportPath != "" {
		if err := report.Write(reportPath); err != nil {
			return false, err
		}
	}
	report.Print(os.Stdout)
	return report.Pass, nil
}
