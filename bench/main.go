// Command bench is the repository's end-to-end and per-layer benchmark.
// One invocation runs one workload in one fresh process (N4):
//
//	go run ./bench -workload predict_single -seed 1 -seconds 20 -trace 0
//
// drives the real stack over loopback and prints, as the last line of
// standard output, one JSON object with the gated end-to-end metrics;
// -trace 1 prints the per-layer metrics instead (see trace.go). README.md
// says what every workload and metric is for.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, with exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits names the gated metrics; BENCHMARK.json carries the same
// names with their bounds (a test holds the two together).
var endToEndUnits = map[string]string{
	"latency_p50_ms": "ms",
	"throughput_rps": "1/s",
	"cpu_ms_per_req": "ms",
	"setup_s":        "s",
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	record   string
	// Not flags; only the tests change them: the training table's size
	// as a multiple of the paper's trace counts, where the traced run
	// writes its spans, the number of cold builds behind setup_s and the
	// warm-up discarded before a window.
	scale  int
	out    string
	builds int
	warm   time.Duration
}

const (
	// tableScale is the multiple of the paper's UC2 trace counts the
	// fixture trains on. It makes one set-up a little over 2 s of
	// deterministic CPU work: long enough that the ~0.1 s run-to-run
	// jitter of a set-up is a few percent of it (N2), short enough that
	// three of them and a 20 s window fit the driver's time cap.
	tableScale = 2
	// coldBuilds is how many times a timed run sets the system up from
	// nothing; setup_s is their median.
	coldBuilds = 3
	// warmUp is driven and discarded before a window opens.
	warmUp = 2 * time.Second
	// procs is the GOMAXPROCS the whole process runs at: the deployment
	// under test is a one-core instance, with the clients queueing on the
	// same core. On the shared 2-vCPU box the benchmark is gated on, the
	// hand-offs between two runtime threads cost whatever the hypervisor
	// makes an inter-processor wake-up cost that minute, and the saturated
	// workloads repeated two to three times worse at 2 than at 1 (N7).
	procs = 1
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{scale: tableScale, out: "bench/out", builds: coldBuilds, warm: warmUp}
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("one of %v", workloadNames))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated request bodies")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the measured window")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer measurement instead of the timed one")
	fs.StringVar(&o.record, "record", "", "also append the result to this JSON-lines file, for -compare")
	compare := fs.Bool("compare", false, "compare two -record files: bench -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two record files")
			return 2
		}
		if err := compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if o.seconds < 1 || fs.NArg() != 0 || !slices.Contains(workloadNames, o.workload) {
		fmt.Fprintf(stderr, "bench: need -workload (one of %v), a positive -seconds and no positional arguments\n", workloadNames)
		return 2
	}
	runtime.GOMAXPROCS(procs)
	var res result
	var err error
	if o.trace != 0 {
		res, err = tracedRun(o, stderr)
	} else {
		res, err = timedRun(o, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.record != "" {
		if err := appendRecord(o, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// deployment is one cold build: the trained fixture, the workload made
// from it and the stack serving it.
type deployment struct {
	m     *models
	w     *workload
	st    *stack
	setup time.Duration
}

// coldBuild sets the system up from nothing and returns once it has
// given a first correct response: generate the table, train, register,
// deploy, answer. w is generated from the first build's models and
// reused, which holds because training is deterministic; generating it
// and computing its expected answers is the instrument's work and stays
// off the clock.
func coldBuild(o options, w *workload) (*deployment, error) {
	cluster := o.workload == "cluster_mixed"
	start := time.Now()
	m, err := trainModels(o.scale, cluster)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start)

	if w == nil {
		if w, err = newWorkload(o.workload, o.seed, m, 0); err != nil {
			return nil, err
		}
		if err := w.prepare(1); err != nil {
			return nil, err
		}
	}

	start = time.Now()
	deploy := deployLocal
	if cluster {
		deploy = deployCluster
	}
	st, err := deploy(m)
	if err != nil {
		return nil, err
	}
	c := newClient(0, st.base, w)
	for _, rq := range w.ops[0] {
		if _, _, ok := c.do(rq); !ok {
			return nil, errors.Join(fmt.Errorf("%s: first response to %s is wrong", o.workload, rq.path), st.close())
		}
	}
	c.hc.CloseIdleConnections()
	return &deployment{m: m, w: w, st: st, setup: setup + time.Since(start)}, nil
}

// timedRun measures the end-to-end metrics: coldBuilds set-ups, a
// discarded warm-up, then one window cut into numSlices slices, of
// which the quiet end is reported.
func timedRun(o options, stderr io.Writer) (result, error) {
	var d *deployment
	var w *workload
	var setups []float64
	for i := 0; i < o.builds; i++ {
		if d != nil {
			if err := d.st.close(); err != nil {
				return result{}, err
			}
		}
		var err error
		if d, err = coldBuild(o, w); err != nil {
			return result{}, err
		}
		w = d.w
		setups = append(setups, d.setup.Seconds())
		fmt.Fprintf(stderr, "bench: %s set-up %d: %.3fs\n", o.workload, i+1, d.setup.Seconds())
	}
	if err := d.w.prepare(0); err != nil {
		return result{}, errors.Join(err, d.st.close())
	}
	l, err := drive(d.st.base, d.w, o.warm, time.Duration(o.seconds)*time.Second, nil)
	if err := errors.Join(err, d.st.close()); err != nil {
		return result{}, err
	}
	win := reduce(l, d.w.limit)
	if win.ops == 0 {
		return result{}, fmt.Errorf("%s: no operation completed correctly (%d attempted)", o.workload, win.attempted)
	}
	res := result{Correct: win.failed == 0, Attempted: win.attempted, Failed: win.failed, Metrics: map[string]metric{}}
	for name, v := range map[string]float64{
		"latency_p50_ms": quiet(win.sliceP50, false),
		"throughput_rps": quiet(win.sliceRPS, true),
		"cpu_ms_per_req": quiet(win.sliceCPU, false),
		"setup_s":        median(setups),
	} {
		res.Metrics[name] = metric{Value: v, Unit: endToEndUnits[name]}
	}
	// The slice medians beside the gated quiet values say how disturbed
	// the run was.
	fmt.Fprintf(stderr, "bench: %s p99 %.3f ms, within %v %.4f, slice medians %.4f ms %.2f/s %.4f cpu ms, slice spread %.4f\n", o.workload,
		percentile(win.lat[clsOp], 0.99), d.w.limit, win.withinLimit,
		median(win.sliceP50), median(win.sliceRPS), median(win.sliceCPU), spread(win.sliceRPS))
	return res, nil
}

// record is one line of a -record file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(o options, res result) error {
	out, err := json.Marshal(record{Workload: o.workload, Seed: o.seed, Trace: o.trace, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(o.record, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(out, '\n')); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}
