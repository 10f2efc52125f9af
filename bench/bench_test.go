package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileMedianQuartiles(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := median(v); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if v[0] != 5 {
		t.Error("median sorted its argument in place")
	}
	s := sortedCopy(v)
	for q, want := range map[float64]float64{0.5: 3, 0.99: 5, 0.2: 1, 0.21: 2, 0: 1, 1: 5} {
		if got := percentile(s, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty input must reduce to 0")
	}
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([2.0, 2.1, 2.4, 3.0, 9.0], n=4) == [2.05, 2.4, 6.0]
	q1, q2, q3 = quartiles([]float64{2.0, 2.1, 2.4, 3.0, 9.0})
	if !near(q1, 2.05) || !near(q2, 2.4) || !near(q3, 6.0) {
		t.Errorf("quartiles = %v %v %v, want 2.05 2.4 6.0", q1, q2, q3)
	}
	if got := spread([]float64{2.0, 2.1, 2.4, 3.0, 9.0}); !near(got, (6.0-2.05)/2.4) {
		t.Errorf("spread = %v", got)
	}
}

func TestReduceSlicesAndFailures(t *testing.T) {
	const from, length = 10 * time.Second, 10 * time.Second
	var samples []sample
	add := func(end time.Duration, latMS float64, cpu time.Duration, class uint8, ok bool) {
		samples = append(samples, sample{end: end, lat: time.Duration(latMS * float64(time.Millisecond)), cpu: cpu, class: class, ok: ok})
	}
	add(9*time.Second, 100, 0, clsOp, true)  // warm-up: dropped
	add(20*time.Second, 100, 0, clsOp, true) // past the end: dropped
	// Slice i (of numSlices) holds 3 operations of latency i+1 ms that
	// complete over (i+1) x 10 ms and cost (i+1) x 3 ms of CPU, added in
	// reverse: reduce orders completions itself.
	const cpu0 = time.Second
	end, cpu := make([]time.Duration, numSlices+1), make([]time.Duration, numSlices+1)
	end[0], cpu[0] = from, cpu0
	for i := 0; i < numSlices; i++ {
		end[i+1] = end[i] + time.Duration(i+1)*10*time.Millisecond
		cpu[i+1] = cpu[i] + time.Duration(i+1)*3*time.Millisecond
	}
	for i := numSlices - 1; i >= 0; i-- {
		add(end[i+1], float64(i+1), cpu[i+1], clsOp, true)
		add(end[i+1]-time.Millisecond, float64(i+1), cpu[i+1]-time.Millisecond, clsOp, true)
		add(end[i+1]-2*time.Millisecond, float64(i+1), cpu[i+1]-2*time.Millisecond, clsOp, true)
	}
	add(from+500*time.Millisecond, 50, 0, clsOp, false)    // a failure: attempted, not timed
	add(from+600*time.Millisecond, 7, 0, clsPromote, true) // a promote: attempted, own class
	add(from+700*time.Millisecond, 30, 0, clsSHAP, true)   // a sub-request: not an operation
	w := reduce(load{samples: samples, from: from, length: length, cpu0: cpu0}, 5*time.Millisecond)
	if ops := 3 * numSlices; w.attempted != ops+2 || w.failed != 1 || w.ops != ops {
		t.Fatalf("attempted %d failed %d ops %d, want %d 1 %d", w.attempted, w.failed, w.ops, ops+2, ops)
	}
	if len(w.sliceRPS) != numSlices || len(w.sliceP50) != numSlices || len(w.sliceCPU) != numSlices {
		t.Fatalf("%d %d %d slices, want %d", len(w.sliceRPS), len(w.sliceP50), len(w.sliceCPU), numSlices)
	}
	for i := 0; i < numSlices; i++ {
		k := float64(i + 1)
		if !near(w.sliceRPS[i], 300/k) || w.sliceP50[i] != k || !near(w.sliceCPU[i], k) {
			t.Errorf("slice %d: %v rps, p50 %v ms, %v cpu ms; want %v, %v and %v", i, w.sliceRPS[i], w.sliceP50[i], w.sliceCPU[i], 300/k, k, k)
		}
	}
	// The gated value is the one a tenth of the slices beat: the four
	// fastest of forty are dropped, at either end.
	if numSlices != 40 || quiet(w.sliceRPS, true) != 60 || quiet(w.sliceP50, false) != 5 || !near(quiet(w.sliceCPU, false), 5) {
		t.Errorf("quiet values %v %v %v, want 60 5 5", quiet(w.sliceRPS, true), quiet(w.sliceP50, false), quiet(w.sliceCPU, false))
	}
	if quiet(nil, true) != 0 || quiet([]float64{3}, false) != 3 || quiet([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, true) != 9 {
		t.Error("quiet on short inputs")
	}
	// 15 successes at or under 5 ms out of 121 clsOp attempts: the failure misses the limit.
	if !near(w.withinLimit, 15.0/121.0) {
		t.Errorf("withinLimit = %v, want %v", w.withinLimit, 15.0/121.0)
	}
	if len(w.lat[clsPromote]) != 1 || len(w.lat[clsSHAP]) != 1 || w.lat[clsPromote][0] != 7 {
		t.Errorf("per-class latencies wrong: %v %v", w.lat[clsPromote], w.lat[clsSHAP])
	}
	// Fewer completions than slices: one slice each.
	if w := reduce(load{samples: samples[2:5], from: from, length: length, cpu0: cpu0}, time.Second); len(w.sliceRPS) != 3 {
		t.Errorf("3 operations made %d slices", len(w.sliceRPS))
	}
}

func TestSelfTimeReconcileAndBuckets(t *testing.T) {
	p50 := map[string]time.Duration{
		rungKernel: 10 * time.Microsecond, rungRuntime: 2300 * time.Microsecond, rungService: 2400 * time.Microsecond,
		rungDirect: 2600 * time.Microsecond, rungGateway: 2750 * time.Microsecond,
	}
	if got := selfTime(p50, rungRuntime, rungKernel); got != 2290*time.Microsecond {
		t.Errorf("runtime self = %v", got)
	}
	if got := selfTime(p50, rungGateway, rungDirect, rungKernel); got != 140*time.Microsecond {
		t.Errorf("two inner rungs: %v", got)
	}
	gw, share := reconcile(p50, rungService, 50*time.Microsecond)
	if gw != 100*time.Microsecond || !near(share, (2400.0+100+100)/2750) {
		t.Errorf("reconcile = %v %v", gw, share)
	}
	bounds := []float64{1, 2, 4}
	if got := bucketQuantile(0.5, bounds, []uint64{0, 10, 0, 0}); !near(got, 1.5) {
		t.Errorf("bucketQuantile inside one bucket = %v, want 1.5", got)
	}
	if got := bucketQuantile(0.5, bounds, []uint64{0, 0, 0, 3}); got != 4 {
		t.Errorf("overflow bucket clamps to the last bound, got %v", got)
	}
	if bucketQuantile(0.5, bounds, []uint64{0, 0, 0, 0}) != 0 {
		t.Error("empty histogram must give 0")
	}
}

func TestSameBitsAndAccepts(t *testing.T) {
	if sameBits([]float64{0}, []float64{math.Copysign(0, -1)}) {
		t.Error("+0 and -0 differ in a bit")
	}
	if sameBits(nil, nil) || sameBits([]float64{1}, []float64{1, 2}) {
		t.Error("empty or unequal-length answers never match")
	}
	rq := &request{want: [][]float64{{0.25, 0.75, 1}, {0.5, 0.5, 0}}}
	if !rq.accepts([]byte(`{"classes":[0],"probs":[[0.5,0.5]]}`)) {
		t.Error("second alternative rejected")
	}
	if rq.accepts([]byte(`{"classes":[1],"probs":[[0.5,0.5]]}`)) {
		t.Error("a mixture of the two alternatives accepted")
	}
	if rq.accepts([]byte(`{"classes":[1],"probs":[[0.25,0.7500000000000001]]}`)) {
		t.Error("an answer one ulp off accepted")
	}
	if !promoteRequest("flow-a", 2).accepts([]byte(`{"name":"flow-a","version":2,"id":"sha256:x"}`)) ||
		promoteRequest("flow-a", 2).accepts([]byte(`{"name":"flow-a","version":1,"id":"sha256:x"}`)) {
		t.Error("promote answer check wrong")
	}
}

// fixture trains the 1x table once for every test that needs models.
var fixture = sync.OnceValues(func() (*models, error) { return trainModels(1, true) })

func TestBodiesFollowSeed(t *testing.T) {
	m, err := fixture()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		a, err := newWorkload(name, 7, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newWorkload(name, 7, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newWorkload(name, 8, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.ops) < 64 {
			t.Errorf("%s: %d distinct operations, want 64 or more", name, len(a.ops))
		}
		distinct := map[string]bool{}
		for i, rq := range a.reqs {
			if !bytes.Equal(rq.body, b.reqs[i].body) {
				t.Fatalf("%s: request %d differs between two generations at one seed", name, i)
			}
			if bytes.Equal(rq.body, c.reqs[i].body) {
				t.Fatalf("%s: request %d is the same at seeds 7 and 8", name, i)
			}
			distinct[string(rq.body)] = true
		}
		if len(distinct) != len(a.reqs) {
			t.Errorf("%s: %d distinct bodies among %d requests", name, len(distinct), len(a.reqs))
		}
	}
}

// TestSmokeTimed runs every workload end to end for one second at the 1x
// table: no operation may fail and every gated metric must be reported.
func TestSmokeTimed(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the real stack over loopback")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			o := options{workload: name, seed: 1, seconds: 1, scale: 1, builds: 1, warm: 200 * time.Millisecond}
			res, err := timedRun(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct %v attempted %d failed %d", res.Correct, res.Attempted, res.Failed)
			}
			if got, want := sortedKeys(res.Metrics), sortedKeys(endToEndUnits); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("metrics %v, want %v", got, want)
			}
			for name, m := range res.Metrics {
				if !(m.Value > 0) || m.Unit != endToEndUnits[name] {
					t.Errorf("%s = %v %q", name, m.Value, m.Unit)
				}
			}
		})
	}
}

// TestSmokeTraced runs one traced run: every per-layer metric must come
// out, the ladder must be written, and the 1-caller ladder must close.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the real stack over loopback")
	}
	dir := t.TempDir()
	o := options{workload: "predict_batch", seed: 2, seconds: 2, trace: 1, scale: 1, out: dir, builds: 1, warm: 200 * time.Millisecond}
	res, err := tracedRun(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct %v attempted %d failed %d", res.Correct, res.Attempted, res.Failed)
	}
	if got, want := sortedKeys(res.Metrics), sortedKeys(perLayerUnits); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("metrics %v, want %v", got, want)
	}
	if got := res.Metrics["xai.model_rows_per_explain"].Value; got != (shapSamples+2)*shapBackground+limeSamples {
		t.Errorf("model rows per explain = %v", got)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "trace_predict_batch.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range file.Spans {
		if s.EndUS < s.StartUS {
			t.Fatalf("span %s ends before it starts", s.Name)
		}
		seen[s.Name] = true
	}
	for _, name := range []string{rungKernel, rungRuntime, rungService, rungDirect, rungGateway, rungDecode, rungExplain,
		rungReplica, rungClusterLocal, rungClusterHTTP, rungFront} {
		if !seen[name] {
			t.Errorf("no span for rung %q", name)
		}
	}
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json and the metric tables
// in the code together.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("workloads %v, code has %v", names, workloadNames)
	}
	if spec.RunSeconds < 20 {
		t.Errorf("run_seconds %d: the slice medians were validated at 20 s and up", spec.RunSeconds)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: %d metrics listed, code reports %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if units[m.Name] != m.Unit {
				t.Errorf("%s %s: unit %q listed, code reports %q", kind, m.Name, m.Unit, units[m.Name])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndUnits)
	check("per_layer", spec.PerLayer, perLayerUnits)
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "BENCHMARK.json")
	spec := `{"end_to_end":[{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.1},
		{"name":"throughput_rps","unit":"1/s","better":"higher","bound":0.1},
		{"name":"setup_s","unit":"s","better":"lower","bound":0.15}]}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(file string, scale float64) string {
		path := filepath.Join(dir, file)
		for i := 0; i < 5; i++ {
			jitter := 1 + 0.004*float64(i)
			res := result{Correct: true, Attempted: 100, Metrics: map[string]metric{
				"latency_p50_ms": {Value: 2.0 * scale * jitter, Unit: "ms"},
				"throughput_rps": {Value: 700 / scale * jitter, Unit: "1/s"},
				"setup_s":        {Value: 2.2 * jitter, Unit: "s"},
			}}
			if err := appendRecord(options{workload: "predict_single", seed: int64(i), record: path}, res); err != nil {
				t.Fatal(err)
			}
		}
		// A traced record in the same file is not a timed run.
		if err := appendRecord(options{workload: "predict_single", trace: 1, record: path},
			result{Metrics: map[string]metric{"latency_p50_ms": {Value: 99}}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.jsonl", 1), write("same.jsonl", 1.02), write("slow.jsonl", 1.2)

	var out bytes.Buffer
	if err := compareFiles(&out, specPath, a, same); err != nil {
		t.Errorf("sets 2%% apart must agree: %v\n%s", err, out.String())
	}
	for _, want := range []string{"predict_single", "latency_p50_ms", "throughput_rps", "setup_s", "5+5", "ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := compareFiles(&out, specPath, a, slow); err == nil || strings.Count(out.String(), "FAIL") != 2 {
		t.Errorf("a 20%% slower set must fail on latency and throughput only: %v\n%s", err, out.String())
	}
	if worseBy(100, 90, "higher") != 0.1 || worseBy(100, 110, "lower") != 0.1 || worseBy(100, 110, "higher") != -0.1 {
		t.Error("worseBy sign convention")
	}
}
