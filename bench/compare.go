package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRecords groups a -record file's timed runs as
// workload -> metric -> one value per run.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, per workload and gated metric, both sets' medians
// and quartiles, each set's own spread, and how much worse b's median is
// than a's, judged against the metric's bound. It is how the claim "two
// sets of runs of one commit agree" is checked, and how a later change
// is compared with its parent.
func compareFiles(w io.Writer, specPath, pathA, pathB string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	var workloads []string
	for name := range a {
		if b[name] != nil {
			workloads = append(workloads, name)
		}
	}
	sort.Strings(workloads)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tn\ta q1\ta median\ta q3\ta spread\tb q1\tb median\tb q3\tb spread\tb worse by\tbound\tverdict\t")
	failed := 0
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			verdict := "ok"
			if worseBy(a2, b2, m.Better) > m.Bound || (m.Name != "setup_s" && max(spread(va), spread(vb)) > m.Bound) {
				verdict = "FAIL"
				failed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%d+%d\t%.4g\t%.4g\t%.4g\t%.3f\t%.4g\t%.4g\t%.4g\t%.3f\t%+.3f\t%.2f\t%s\t\n",
				wl, m.Name, len(va), len(vb), a1, a2, a3, spread(va), b1, b2, b3, spread(vb),
				worseBy(a2, b2, m.Better), m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d metric x workload cells outside their bound", failed)
	}
	return nil
}

// worseBy is how much worse b is than a as a share of a: positive when b
// is slower, costlier or does less.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
