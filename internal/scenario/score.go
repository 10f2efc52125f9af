package scenario

import (
	"encoding/json"
	"sort"
	"time"

	"repro/internal/loadgen"
)

// Scorecard is the machine-readable verdict of one scenario run. Every
// number is derived from what the run recorded — the samples, the sensor
// readings and the fault counters — so a scorecard is evidence, not
// narrative. Durations are integer nanoseconds; -1 marks "not applicable
// / never happened" so JSON consumers need no null handling.
type Scorecard struct {
	Scenario    string `json:"scenario"`
	Description string `json:"description,omitempty"`
	UseCase     string `json:"useCase,omitempty"`
	Workload    string `json:"workload,omitempty"`
	Seed        int64  `json:"seed"`
	DurationNs  int64  `json:"durationNs"`

	// Traffic totals. Errors excludes sheds: a 429 is the admission
	// controller working, not the stack failing.
	Requests      int     `json:"requests"`
	Errors        int     `json:"errors"`
	Shed          int     `json:"shed"`
	ErrorRate     float64 `json:"errorRate"`
	MeanNs        int64   `json:"meanNs"`
	P50Ns         int64   `json:"p50Ns"`
	P95Ns         int64   `json:"p95Ns"`
	P99Ns         int64   `json:"p99Ns"`
	ThroughputRPS float64 `json:"throughputRps"`

	// SLO accounting over fixed one-second windows (sloWindow).
	SLOViolationSeconds float64 `json:"sloViolationSeconds"`
	// ErrorBudgetBurn is violation time over the run's allowed
	// violation time (errorBudget, 1 %, of the duration); > 1 means the
	// budget is blown.
	ErrorBudgetBurn float64 `json:"errorBudgetBurn"`

	// Detection: delay from the first adversarial (or, failing that,
	// fault) phase start to the first sensor alert at or after it.
	Detected         bool   `json:"detected"`
	DetectionDelayNs int64  `json:"detectionDelayNs"`
	FirstAlertSensor string `json:"firstAlertSensor,omitempty"`

	// Recovery: time from the last disruption (fault or adversarial
	// phase) clearing to the end of the first SLO-healthy window after
	// it. -1: never recovered (or nothing to recover from).
	RecoveryNs int64 `json:"recoveryNs"`

	// Faults the fault engine actually delivered.
	Faults ChaosStats `json:"faults"`

	Phases []PhaseScore `json:"phases"`

	// Verdict is "pass", "degraded", or "fail"; Reasons carries the
	// rule hits behind a non-pass verdict.
	Verdict string   `json:"verdict"`
	Reasons []string `json:"reasons,omitempty"`
}

// PhaseScore is the per-phase slice of the totals.
type PhaseScore struct {
	Phase               string  `json:"phase"`
	Requests            int     `json:"requests"`
	Errors              int     `json:"errors"`
	Shed                int     `json:"shed"`
	P95Ns               int64   `json:"p95Ns"`
	SLOViolationSeconds float64 `json:"sloViolationSeconds"`
}

// JSON renders the scorecard with stable formatting (struct field order,
// two-space indent) — the byte-identical artifact CI diffs across runs.
func (c Scorecard) JSON() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// window aggregates the samples of one SLO bucket.
type window struct {
	start    time.Time
	lats     []time.Duration
	count    int
	errs     int
	shed     int
	violated bool
}

// Score reduces a run record to its scorecard.
func Score(rec *Record) Scorecard {
	sc := rec.Scenario
	card := Scorecard{
		Scenario:    sc.Name,
		Description: sc.Description,
		UseCase:     sc.UseCase,
		Workload:    sc.Workload,
		Seed:        sc.Seed,
		DurationNs:  rec.End.Sub(rec.Start).Nanoseconds(),
		Faults:      rec.Chaos,
	}

	sum := rec.Results.Summarize()
	card.Requests = sum.Count
	card.Shed = sum.Shed
	card.Errors = sum.Errors - sum.Shed
	if sum.Count > 0 {
		card.ErrorRate = float64(card.Errors) / float64(sum.Count)
	}
	card.MeanNs = sum.Mean.Nanoseconds()
	card.P50Ns = sum.P50.Nanoseconds()
	card.P95Ns = sum.P95.Nanoseconds()
	card.P99Ns = sum.P99.Nanoseconds()
	card.ThroughputRPS = sum.Throughput

	windows := bucketize(rec, sc.SLO)
	var violationSec float64
	for _, w := range windows {
		if w.violated {
			violationSec += sloWindow.Seconds()
		}
	}
	card.SLOViolationSeconds = violationSec
	if dur := rec.End.Sub(rec.Start).Seconds(); dur > 0 {
		card.ErrorBudgetBurn = violationSec / (errorBudget * dur)
	}

	card.Detected, card.DetectionDelayNs, card.FirstAlertSensor = detection(rec)
	card.RecoveryNs = recovery(rec, windows)
	card.Phases = phaseScores(rec, windows)

	card.Verdict, card.Reasons = verdict(rec, card)
	return card
}

// bucketize folds the samples into SLO windows and marks violations.
func bucketize(rec *Record, slo SLO) []*window {
	byIdx := make(map[int]*window)
	for _, s := range rec.Results.Samples {
		idx := int(s.Start.Sub(rec.Start) / sloWindow)
		w, ok := byIdx[idx]
		if !ok {
			w = &window{start: rec.Start.Add(time.Duration(idx) * sloWindow)}
			byIdx[idx] = w
		}
		w.count++
		w.lats = append(w.lats, s.Latency)
		if loadgen.IsShed(s.Err) {
			w.shed++
		} else if s.Err != nil {
			w.errs++
		}
	}
	out := make([]*window, 0, len(byIdx))
	for _, w := range byIdx {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	for _, w := range out {
		sort.Slice(w.lats, func(i, j int) bool { return w.lats[i] < w.lats[j] })
		p95 := percentileDur(w.lats, 0.95)
		errRate := float64(w.errs) / float64(w.count)
		w.violated = p95 > slo.LatencyP95 || errRate > slo.MaxErrorRate
	}
	return out
}

// percentileDur is the nearest-rank percentile of a sorted slice.
func percentileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// disruptionWindow returns the [start, end) union bounds of the phases
// that inject anything, preferring adversarial phases for the detection
// anchor.
func disruptionWindow(rec *Record) (advStart, anyStart, anyEnd time.Time, hasAdv, hasAny bool) {
	for _, m := range rec.Marks {
		disruptive := m.Fault != nil || m.Adversarial != nil
		if !disruptive {
			continue
		}
		if !hasAny || m.Start.Before(anyStart) {
			anyStart = m.Start
		}
		if !hasAny || m.End.After(anyEnd) {
			anyEnd = m.End
		}
		hasAny = true
		if m.Adversarial != nil && (!hasAdv || m.Start.Before(advStart)) {
			advStart = m.Start
			hasAdv = true
		}
	}
	return advStart, anyStart, anyEnd, hasAdv, hasAny
}

// detection finds the first sensor alert at or after the disruption
// start.
func detection(rec *Record) (bool, int64, string) {
	advStart, anyStart, _, hasAdv, hasAny := disruptionWindow(rec)
	if !hasAny {
		return false, -1, ""
	}
	anchor := anyStart
	if hasAdv {
		anchor = advStart
	}
	for _, r := range rec.Readings {
		if r.Alert && !r.Time.Before(anchor) {
			return true, r.Time.Sub(anchor).Nanoseconds(), r.Sensor
		}
	}
	return false, -1, ""
}

// recovery measures disruption-end to the end of the first healthy
// window after it.
func recovery(rec *Record, windows []*window) int64 {
	_, _, anyEnd, _, hasAny := disruptionWindow(rec)
	if !hasAny {
		return -1
	}
	for _, w := range windows {
		if w.start.Before(anyEnd) || w.violated {
			continue
		}
		return w.start.Add(sloWindow).Sub(anyEnd).Nanoseconds()
	}
	return -1
}

// phaseScores slices the totals per phase mark.
func phaseScores(rec *Record, windows []*window) []PhaseScore {
	out := make([]PhaseScore, 0, len(rec.Marks))
	for _, m := range rec.Marks {
		ps := PhaseScore{Phase: m.Name}
		var lats []time.Duration
		for _, s := range rec.Results.Samples {
			if s.Start.Before(m.Start) || !s.Start.Before(m.End) {
				continue
			}
			ps.Requests++
			lats = append(lats, s.Latency)
			if loadgen.IsShed(s.Err) {
				ps.Shed++
			} else if s.Err != nil {
				ps.Errors++
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		ps.P95Ns = percentileDur(lats, 0.95).Nanoseconds()
		for _, w := range windows {
			if w.violated && !w.start.Before(m.Start) && w.start.Before(m.End) {
				ps.SLOViolationSeconds += sloWindow.Seconds()
			}
		}
		out = append(out, ps)
	}
	return out
}

// verdict applies the pass/degraded/fail rules. The rules are
// deliberately few and mechanical: an undetected adversarial phase or a
// blown error budget or a never-recovered stack fails; a detected-but-
// slow or half-burned run degrades; everything else passes.
func verdict(rec *Record, card Scorecard) (string, []string) {
	var reasons []string
	_, _, anyEnd, hasAdv, hasAny := disruptionWindow(rec)
	fail := false
	if hasAdv && !card.Detected {
		fail = true
		reasons = append(reasons, "adversarial phase ran without any sensor alert")
	}
	if card.ErrorBudgetBurn > 1 {
		fail = true
		reasons = append(reasons, "error budget blown")
	}
	if hasAny && card.RecoveryNs < 0 && rec.End.After(anyEnd) {
		fail = true
		reasons = append(reasons, "no SLO-healthy window after the disruption cleared")
	}
	if fail {
		return "fail", reasons
	}
	if card.ErrorBudgetBurn > 0.5 {
		reasons = append(reasons, "more than half the error budget burned")
	}
	if hasAdv && card.Detected && card.DetectionDelayNs > (5*time.Second).Nanoseconds() {
		reasons = append(reasons, "detection slower than 5s")
	}
	if len(reasons) > 0 {
		return "degraded", reasons
	}
	return "pass", nil
}
