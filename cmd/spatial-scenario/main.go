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
// A scenario runs against the deterministic virtual world (fake clock,
// closed-form service model): a 30-second campaign finishes in
// milliseconds and the scorecard bytes reproduce exactly across runs.
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
	list := fs.Bool("list", false, "list registered scenarios and exit")
	name := fs.String("run", "", "scenario name to run")
	smoke := fs.Bool("smoke", false, "run the deterministic smoke subset")
	out := fs.String("out", "", "scorecard output: file for -run, directory for -smoke (default stdout / .)")
	load := fs.String("load", "", "JSON file with extra scenarios to register")
	seed := fs.Int64("seed", 0, "override the scenario seed (0 = keep)")
	strict := fs.Bool("strict", false, "exit non-zero when any scorecard verdict is \"fail\"")
	if err := fs.Parse(args); err != nil {
		return err
	}

	lib := scenario.Default()
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		names, err := lib.LoadJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded %d scenario(s) from %s\n", len(names), *load)
	}

	if *list {
		for _, sc := range lib.All() {
			tag := " "
			if sc.Smoke {
				tag = "S"
			}
			fmt.Fprintf(stdout, "%s %-24s %8s  %s\n", tag, sc.Name, sc.Duration(), sc.Description)
		}
		return nil
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	var targets []scenario.Scenario
	switch {
	case *smoke:
		targets = lib.Smoke()
	case *name != "":
		sc, ok := lib.Get(*name)
		if !ok {
			return fmt.Errorf("unknown scenario %q (use -list)", *name)
		}
		targets = []scenario.Scenario{sc}
	default:
		return errors.New("nothing to do: pass -run NAME, -smoke, or -list")
	}

	failed := 0
	for _, sc := range targets {
		if *seed != 0 {
			sc.Seed = *seed
		}
		rec, err := scenario.Run(ctx, sc)
		if err != nil {
			return fmt.Errorf("run %s: %w", sc.Name, err)
		}
		card := scenario.Score(rec)
		if card.Verdict == "fail" {
			failed++
		}
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
	if *strict && failed > 0 {
		return fmt.Errorf("%d scenario(s) failed", failed)
	}
	return nil
}
