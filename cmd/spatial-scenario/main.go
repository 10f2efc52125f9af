// Command spatial-scenario runs declarative chaos + attack + drift
// campaigns against a deterministic model of the SPATIAL stack and emits
// scored verdicts.
//
// Usage:
//
//	spatial-scenario -list
//	spatial-scenario -run flash-crowd-poison -out scorecard.json
//	spatial-scenario -smoke -out scorecards/
//
// Every campaign runs on the real cluster tier (internal/cluster) over
// replicas a closed-form service model answers, on a fake clock: one
// replica unless the scenario sets more. A 30-second campaign finishes
// in milliseconds and the scorecard bytes reproduce exactly across runs.
// The scenarios are the eight built-ins of scenario.Builtins; -smoke
// runs all of them, and -seed reruns one at another seed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"

	"repro/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spatial-scenario:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("spatial-scenario", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the built-in scenarios and exit")
	name := fs.String("run", "", "scenario name to run")
	smoke := fs.Bool("smoke", false, "run every built-in scenario")
	out := fs.String("out", "", "scorecard output: file for -run, directory for -smoke (default stdout / .)")
	seed := fs.Int64("seed", 0, "override the scenario seed (0 = keep)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	builtins := scenario.Builtins()
	if *list {
		for _, sc := range builtins {
			fmt.Fprintf(stdout, "%-24s %8s  %s\n", sc.Name, sc.Duration(), sc.Description)
		}
		return nil
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	var targets []scenario.Scenario
	switch {
	case *smoke:
		targets = builtins
	case *name != "":
		i := slices.IndexFunc(builtins, func(sc scenario.Scenario) bool { return sc.Name == *name })
		if i < 0 {
			return fmt.Errorf("unknown scenario %q (use -list)", *name)
		}
		targets = builtins[i : i+1]
	default:
		return errors.New("nothing to do: pass -run NAME, -smoke, or -list")
	}

	for _, sc := range targets {
		if *seed != 0 {
			sc.Seed = *seed
		}
		rec, err := scenario.Run(ctx, sc)
		if err != nil {
			return fmt.Errorf("run %s: %w", sc.Name, err)
		}
		card := scenario.Score(rec)
		buf, err := card.JSON()
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		switch {
		case *smoke:
			dir := *out
			if dir == "" {
				dir = "."
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(dir, sc.Name+".scorecard.json")
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-24s verdict=%-8s requests=%d shed=%d sloViolation=%.0fs -> %s\n",
				sc.Name, card.Verdict, card.Requests, card.Shed, card.SLOViolationSeconds, path)
		case *out != "":
			if err := os.WriteFile(*out, buf, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s: verdict=%s -> %s\n", sc.Name, card.Verdict, *out)
		default:
			if _, err := stdout.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}
