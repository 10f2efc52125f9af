// Command spatial-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	spatial-experiments -exp fig6            # one experiment
//	spatial-experiments -exp all             # everything, in paper order
//	spatial-experiments -exp fig8c -quick    # reduced-size run
//	spatial-experiments -exp uc2-fgsm -json out.json
//	spatial-experiments -exp ext               # extension experiments
//	spatial-experiments -list                  # known ids
//
// Known experiment ids: uc1-baseline, fig6, fig6-shap, uc2-baseline,
// uc2-fgsm, fig7-shap, fig7, fig8b, fig8c, fig8d, taxonomy.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

// paperOrder lists experiments in the order the paper presents them.
var paperOrder = []string{
	"taxonomy",
	"uc1-baseline", "fig6", "fig6-shap",
	"uc2-baseline", "uc2-fgsm", "fig7-shap", "fig7",
	"fig8b", "fig8c", "fig8d",
}

// extOrder lists the extension experiments (-exp ext).
var extOrder = []string{"ext-defense", "ext-privacy", "ext-federated"}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spatial-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("spatial-experiments", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id, comma-separated list, or 'all'")
	quick := fs.Bool("quick", false, "reduced-size run")
	seed := fs.Int64("seed", 1, "random seed")
	jsonOut := fs.String("json", "", "write structured results to this JSON file")
	list := fs.Bool("list", false, "list known experiment ids and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}

	var ids []string
	switch *exp {
	case "all":
		ids = paperOrder
	case "ext":
		ids = extOrder
	default:
		for _, id := range strings.Split(*exp, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	if len(ids) == 0 {
		return fmt.Errorf("no experiments selected (known: %v)", experiments.IDs())
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed, Out: os.Stdout}
	results := make(map[string]any, len(ids))
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(id, cfg)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		results[id] = res
		fmt.Printf("\n[%s completed in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}

	if *jsonOut != "" {
		raw, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return fmt.Errorf("marshal results: %w", err)
		}
		if err := os.WriteFile(*jsonOut, raw, 0o644); err != nil {
			return fmt.Errorf("write %s: %w", *jsonOut, err)
		}
		fmt.Printf("results written to %s\n", *jsonOut)
	}
	return nil
}
