// Package scenario is the declarative chaos + attack + drift campaign
// engine. The paper's evaluation is two fixed stories — poisoning/evasion
// detection on two use cases and a JMeter capacity-load study — but the
// monitoring stack is only trustworthy if it keeps detecting under every
// traffic shape, fault, and adversary an operator can imagine. Following
// the scenario-oriented AIOps benchmark idea, this package turns those
// stories into entries of a growing scenario library: a Scenario is a
// named timeline of phases, each combining a traffic shape (steady, ramp,
// diurnal, flash-crowd, heavy-tail), an optional injected fault (induced
// latency, error bursts, connection resets, a downed service), and an
// optional adversarial action reusing internal/attack and internal/drift
// (label-flip poison wave, FGSM burst, covariate-shift ramp). The
// executor drives internal/loadgen through the timeline on internal/clock
// — so every scenario also runs deterministically under clock.Fake — and
// the scorer reduces the run to a machine-readable scorecard (detection
// delay, sheds, SLO-violation seconds, error-budget burn, recovery time)
// read from the telemetry the run produced, not from prose.
package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("2s", "150ms") and unmarshals from either that form or integer
// nanoseconds, so scenario JSON stays hand-editable while Go-registered
// scenarios stay type-checked.
type Duration time.Duration

// D returns the underlying time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON renders the duration string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "2s"-style strings or integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch v := v.(type) {
	case string:
		parsed, err := time.ParseDuration(v)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", v, err)
		}
		*d = Duration(parsed)
	case float64:
		*d = Duration(time.Duration(v))
	default:
		return fmt.Errorf("scenario: duration must be a string or nanosecond count, got %T", v)
	}
	return nil
}

// ShapeKind names a traffic shape.
type ShapeKind string

// Traffic shapes. All are open-loop arrival-rate curves over the phase
// duration; the executor converts the instantaneous rate to a per-tick
// request count with a fractional-carry accumulator so low rates are not
// rounded away.
const (
	// ShapeSteady holds BaseRPS for the whole phase.
	ShapeSteady ShapeKind = "steady"
	// ShapeRamp interpolates linearly from BaseRPS to PeakRPS — the
	// paper's capacity study (threads ramp toward saturation).
	ShapeRamp ShapeKind = "ramp"
	// ShapeDiurnal follows a raised cosine between BaseRPS (trough) and
	// PeakRPS (crest) with the given Period — a compressed day/night
	// cycle.
	ShapeDiurnal ShapeKind = "diurnal"
	// ShapeFlashCrowd holds BaseRPS, then spikes to PeakRPS for the
	// window [PeakAt, PeakAt+PeakWidth] (fractions of the phase), then
	// returns to BaseRPS — a thundering herd.
	ShapeFlashCrowd ShapeKind = "flash-crowd"
	// ShapeHeavyTail draws a Pareto(Alpha) burst multiplier per tick on
	// top of BaseRPS, capped at PeakRPS — bursty heavy-tailed arrivals.
	ShapeHeavyTail ShapeKind = "heavy-tail"
)

// Shape is one phase's traffic curve.
type Shape struct {
	Kind    ShapeKind `json:"kind"`
	BaseRPS float64   `json:"baseRps"`
	// PeakRPS is the ramp target / diurnal crest / flash-crowd spike /
	// heavy-tail cap. Unused by steady.
	PeakRPS float64 `json:"peakRps,omitempty"`
	// Period is the diurnal cycle length (default: the phase duration).
	Period Duration `json:"period,omitempty"`
	// PeakAt and PeakWidth locate the flash-crowd window as fractions of
	// the phase duration (defaults 0.4 and 0.2).
	PeakAt    float64 `json:"peakAt,omitempty"`
	PeakWidth float64 `json:"peakWidth,omitempty"`
	// Alpha is the heavy-tail Pareto shape (default 1.5; smaller =
	// heavier tail).
	Alpha float64 `json:"alpha,omitempty"`
}

// RPS evaluates the shape at elapsed time into a phase of the given
// duration. burstU is a uniform(0,1] draw consumed only by heavy-tail
// (the executor feeds it from the scenario's seeded stream so fake-clock
// runs reproduce bit-for-bit).
func (s Shape) RPS(elapsed, phaseDur time.Duration, burstU float64) float64 {
	if phaseDur <= 0 {
		return s.BaseRPS
	}
	frac := float64(elapsed) / float64(phaseDur)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	switch s.Kind {
	case ShapeRamp:
		return s.BaseRPS + (s.PeakRPS-s.BaseRPS)*frac
	case ShapeDiurnal:
		period := s.Period.D()
		if period <= 0 {
			period = phaseDur
		}
		// Trough at phase start, crest half a period in.
		cyc := float64(elapsed) / float64(period)
		w := (1 - math.Cos(2*math.Pi*cyc)) / 2
		return s.BaseRPS + (s.PeakRPS-s.BaseRPS)*w
	case ShapeFlashCrowd:
		at, width := s.PeakAt, s.PeakWidth
		if at <= 0 {
			at = 0.4
		}
		if width <= 0 {
			width = 0.2
		}
		if frac >= at && frac < at+width {
			return s.PeakRPS
		}
		return s.BaseRPS
	case ShapeHeavyTail:
		alpha := s.Alpha
		if alpha <= 0 {
			alpha = 1.5
		}
		if burstU <= 0 {
			burstU = 1
		}
		// Pareto with x_m = 1: multiplier in [1, inf).
		mult := math.Pow(burstU, -1/alpha)
		rps := s.BaseRPS * mult
		if s.PeakRPS > 0 && rps > s.PeakRPS {
			rps = s.PeakRPS
		}
		return rps
	default: // ShapeSteady
		return s.BaseRPS
	}
}

func (s Shape) validate() error {
	switch s.Kind {
	case ShapeSteady, ShapeRamp, ShapeDiurnal, ShapeFlashCrowd, ShapeHeavyTail:
	default:
		return fmt.Errorf("unknown traffic shape %q", s.Kind)
	}
	if s.BaseRPS < 0 || s.PeakRPS < 0 {
		return fmt.Errorf("shape %q: negative rate", s.Kind)
	}
	if s.Kind == ShapeSteady && s.BaseRPS <= 0 {
		return fmt.Errorf("steady shape needs baseRps > 0")
	}
	if (s.Kind == ShapeRamp || s.Kind == ShapeDiurnal || s.Kind == ShapeFlashCrowd) && s.PeakRPS <= 0 {
		return fmt.Errorf("shape %q needs peakRps > 0", s.Kind)
	}
	if s.PeakAt < 0 || s.PeakAt > 1 || s.PeakWidth < 0 || s.PeakWidth > 1 {
		return fmt.Errorf("flash-crowd window fractions outside [0,1]")
	}
	return nil
}

// FaultKind names an injected infrastructure fault.
type FaultKind string

// Fault kinds the chaos proxy can inject between gateway and upstream.
const (
	// FaultLatency adds Latency (±Jitter) to affected requests.
	FaultLatency FaultKind = "latency"
	// FaultErrorBurst answers affected requests with Code (default 503)
	// without touching the upstream.
	FaultErrorBurst FaultKind = "error-burst"
	// FaultReset aborts the connection of affected requests — the client
	// sees a transport error, the breaker sees an upstream failure.
	FaultReset FaultKind = "reset"
	// FaultDown refuses every request for the fault window — a killed
	// service; clearing the fault is the restart.
	FaultDown FaultKind = "down"
	// FaultReplicaKill kills one replica of the virtual cluster tier
	// (Fault.Replica, or the shard owner when empty). Unlike the other
	// kinds the kill persists past the phase — only FaultReplicaRestart
	// revives it — so a campaign can measure rerouted traffic across
	// several phases before scoring the recovery. Requires
	// Scenario.Cluster.
	FaultReplicaKill FaultKind = "replica-kill"
	// FaultReplicaRestart revives a previously killed replica (or all of
	// them when Fault.Replica is empty). Requires Scenario.Cluster.
	FaultReplicaRestart FaultKind = "replica-restart"
)

// Fault configures one phase's fault injection.
type Fault struct {
	Kind FaultKind `json:"kind"`
	// Rate is the fraction of requests affected in [0,1] (default 1).
	Rate float64 `json:"rate,omitempty"`
	// Latency and Jitter apply to FaultLatency.
	Latency Duration `json:"latency,omitempty"`
	Jitter  Duration `json:"jitter,omitempty"`
	// Code is the FaultErrorBurst status (default 503).
	Code int `json:"code,omitempty"`
	// Replica targets FaultReplicaKill/FaultReplicaRestart at one member
	// of the virtual cluster ("replica-0"...). Empty means the shard
	// owner for a kill and every downed member for a restart.
	Replica string `json:"replica,omitempty"`
}

// clusterFault reports whether the kind targets the replica tier.
func (f Fault) clusterFault() bool {
	return f.Kind == FaultReplicaKill || f.Kind == FaultReplicaRestart
}

// rate returns the effective affected fraction.
func (f Fault) rate() float64 {
	if f.Rate <= 0 || f.Rate > 1 {
		return 1
	}
	return f.Rate
}

func (f Fault) validate() error {
	switch f.Kind {
	case FaultLatency, FaultErrorBurst, FaultReset, FaultDown,
		FaultReplicaKill, FaultReplicaRestart:
	default:
		return fmt.Errorf("unknown fault kind %q", f.Kind)
	}
	if f.Rate < 0 || f.Rate > 1 {
		return fmt.Errorf("fault %q: rate %v outside [0,1]", f.Kind, f.Rate)
	}
	if f.Kind == FaultLatency && f.Latency.D() <= 0 {
		return fmt.Errorf("latency fault needs latency > 0")
	}
	if f.Code != 0 && (f.Code < 400 || f.Code > 599) {
		return fmt.Errorf("fault %q: code %d outside 4xx/5xx", f.Kind, f.Code)
	}
	if f.Replica != "" && !f.clusterFault() {
		return fmt.Errorf("fault %q: replica target only applies to replica faults", f.Kind)
	}
	return nil
}

// AdvKind names an adversarial action against the model's data plane.
type AdvKind string

// Adversarial actions, reusing internal/attack and internal/drift.
const (
	// AdvPoisonWave flips a fraction Rate of the labels in each emitted
	// batch (attack.LabelFlip; Target >= 0 switches to TargetedFlip) —
	// use case 1's black-box poisoning as a live wave.
	AdvPoisonWave AdvKind = "poison-wave"
	// AdvFGSMBurst perturbs each batch with FGSM at Eps against the
	// white-box model — use case 2's evasion attack as a burst.
	AdvFGSMBurst AdvKind = "fgsm-burst"
	// AdvCovariateShift adds a feature-space offset that ramps from 0 to
	// Magnitude (in per-feature standard deviations) over the phase —
	// the slow drift the KS/PSI detector exists for.
	AdvCovariateShift AdvKind = "covariate-shift"
)

// Adversarial configures one phase's attack.
type Adversarial struct {
	Kind AdvKind `json:"kind"`
	// Rate is the poison-wave flip fraction in [0,1].
	Rate float64 `json:"rate,omitempty"`
	// Target selects the targeted-flip class; negative = untargeted.
	Target int `json:"target,omitempty"`
	// Eps is the FGSM perturbation budget.
	Eps float64 `json:"eps,omitempty"`
	// Magnitude is the covariate-shift endpoint in feature std-devs.
	Magnitude float64 `json:"magnitude,omitempty"`
}

func (a Adversarial) validate() error {
	switch a.Kind {
	case AdvPoisonWave:
		if a.Rate <= 0 || a.Rate > 1 {
			return fmt.Errorf("poison-wave rate %v outside (0,1]", a.Rate)
		}
	case AdvFGSMBurst:
		if a.Eps <= 0 {
			return fmt.Errorf("fgsm-burst needs eps > 0")
		}
	case AdvCovariateShift:
		if a.Magnitude <= 0 {
			return fmt.Errorf("covariate-shift needs magnitude > 0")
		}
	default:
		return fmt.Errorf("unknown adversarial kind %q", a.Kind)
	}
	return nil
}

// ClusterSpec sizes the virtual replica tier a scenario runs against.
// When set, RunVirtual swaps the single VirtualTarget for a
// VirtualCluster: shard-aware routing over N replicas, so replica-kill
// and replica-restart faults become meaningful and the scorecard's
// Faults.Rerouted counts failover traffic.
type ClusterSpec struct {
	// Replicas is the member count (>= 2; there is nothing to fail over
	// to with one).
	Replicas int `json:"replicas"`
}

func (c ClusterSpec) validate() error {
	if c.Replicas < 2 {
		return fmt.Errorf("cluster needs >= 2 replicas, got %d", c.Replicas)
	}
	return nil
}

// Phase is one segment of a scenario timeline.
type Phase struct {
	Name     string   `json:"name"`
	Duration Duration `json:"duration"`
	Shape    Shape    `json:"shape"`
	// Fault, when set, is installed on the chaos proxy (or the virtual
	// target) for the phase and cleared at its end.
	Fault *Fault `json:"fault,omitempty"`
	// Adversarial, when set, perturbs the data stream for the phase.
	Adversarial *Adversarial `json:"adversarial,omitempty"`
}

// SLO is the service-level objective a scenario is scored against.
type SLO struct {
	// LatencyP95 is the per-window p95 latency bound.
	LatencyP95 Duration `json:"latencyP95"`
	// MaxErrorRate is the per-window non-shed error-rate bound.
	MaxErrorRate float64 `json:"maxErrorRate"`
	// Window is the evaluation bucket (default 1s).
	Window Duration `json:"window,omitempty"`
	// ErrorBudget is the fraction of the run allowed to violate the SLO
	// before the budget is fully burned (default 0.01).
	ErrorBudget float64 `json:"errorBudget,omitempty"`
}

// window returns the effective bucket width.
func (s SLO) window() time.Duration {
	if w := s.Window.D(); w > 0 {
		return w
	}
	return time.Second
}

// budget returns the effective error-budget fraction.
func (s SLO) budget() float64 {
	if s.ErrorBudget > 0 {
		return s.ErrorBudget
	}
	return 0.01
}

// Scenario is one named campaign: a timeline of phases plus the SLO and
// workload it is scored against.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// UseCase anchors library entries to the paper ("uc1", "uc2",
	// "capacity", ...); free-form for new scenarios.
	UseCase string `json:"useCase,omitempty"`
	// Workload names the data/model pair the adversarial stream runs
	// against: "fall" (use case 1), "nettraffic" (use case 2), or
	// "synthetic" (a small separable table). Default "synthetic".
	Workload string `json:"workload,omitempty"`
	// Seed drives every stochastic choice (heavy-tail bursts, fault
	// sampling, attack perturbations); fixed seed + fake clock =>
	// byte-identical scorecards.
	Seed int64 `json:"seed"`
	// Tick is the executor quantum (default 100ms).
	Tick Duration `json:"tick,omitempty"`
	// SensorEvery is the sensor sampling period (default 500ms).
	SensorEvery Duration `json:"sensorEvery,omitempty"`
	SLO         SLO      `json:"slo"`
	// Cluster, when set, runs the scenario against a virtual replica
	// tier instead of a single virtual target (see ClusterSpec). Live
	// mode refuses such a scenario: it has no replica tier to fail.
	Cluster *ClusterSpec `json:"cluster,omitempty"`
	Phases  []Phase      `json:"phases"`
	// Smoke marks the scenario as a member of the deterministic
	// CI-runnable subset.
	Smoke bool `json:"smoke,omitempty"`
}

// tick returns the effective executor quantum.
func (sc Scenario) tick() time.Duration {
	if t := sc.Tick.D(); t > 0 {
		return t
	}
	return 100 * time.Millisecond
}

// sensorEvery returns the effective sensor sampling period.
func (sc Scenario) sensorEvery() time.Duration {
	if t := sc.SensorEvery.D(); t > 0 {
		return t
	}
	return 500 * time.Millisecond
}

// SensorPeriod is the effective sensor sampling period (exported for
// runners assembling their own Env outside this package).
func (sc Scenario) SensorPeriod() time.Duration { return sc.sensorEvery() }

// Duration sums the phase durations.
func (sc Scenario) Duration() time.Duration {
	var total time.Duration
	for _, p := range sc.Phases {
		total += p.Duration.D()
	}
	return total
}

// Validate checks the scenario is executable.
func (sc Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if len(sc.Phases) == 0 {
		return fmt.Errorf("scenario %q: no phases", sc.Name)
	}
	if sc.SLO.LatencyP95.D() <= 0 {
		return fmt.Errorf("scenario %q: SLO latencyP95 must be positive", sc.Name)
	}
	if sc.SLO.MaxErrorRate < 0 || sc.SLO.MaxErrorRate > 1 {
		return fmt.Errorf("scenario %q: SLO maxErrorRate outside [0,1]", sc.Name)
	}
	switch sc.Workload {
	case "", WorkloadSynthetic, WorkloadFall, WorkloadNetTraffic:
	default:
		return fmt.Errorf("scenario %q: unknown workload %q", sc.Name, sc.Workload)
	}
	if sc.Cluster != nil {
		if err := sc.Cluster.validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
	}
	seen := make(map[string]bool, len(sc.Phases))
	for i, p := range sc.Phases {
		if p.Name == "" {
			return fmt.Errorf("scenario %q: phase %d missing name", sc.Name, i)
		}
		if seen[p.Name] {
			return fmt.Errorf("scenario %q: duplicate phase name %q", sc.Name, p.Name)
		}
		seen[p.Name] = true
		if p.Duration.D() <= 0 {
			return fmt.Errorf("scenario %q: phase %q duration must be positive", sc.Name, p.Name)
		}
		if err := p.Shape.validate(); err != nil {
			return fmt.Errorf("scenario %q: phase %q: %w", sc.Name, p.Name, err)
		}
		if p.Fault != nil {
			if err := p.Fault.validate(); err != nil {
				return fmt.Errorf("scenario %q: phase %q: %w", sc.Name, p.Name, err)
			}
			if p.Fault.clusterFault() && sc.Cluster == nil {
				return fmt.Errorf("scenario %q: phase %q: fault %q needs a cluster spec", sc.Name, p.Name, p.Fault.Kind)
			}
		}
		if p.Adversarial != nil {
			if err := p.Adversarial.validate(); err != nil {
				return fmt.Errorf("scenario %q: phase %q: %w", sc.Name, p.Name, err)
			}
		}
	}
	return nil
}
