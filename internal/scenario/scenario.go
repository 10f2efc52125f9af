// Package scenario is the declarative chaos + attack + drift campaign
// engine. The paper's evaluation is two fixed stories — poisoning/evasion
// detection on two use cases and a JMeter capacity-load study — but the
// monitoring stack is only trustworthy if it keeps detecting under the
// traffic shapes, faults and adversaries it will meet. Following the
// scenario-oriented AIOps benchmark idea, this package turns those
// stories into eight built-in scenarios (Builtins): a Scenario is a named
// timeline of phases, each combining a traffic shape (steady, ramp,
// diurnal, flash-crowd, heavy-tail), an optional injected fault (induced
// latency, error bursts, a replica kill and restart), and an optional
// adversarial action reusing internal/attack and internal/drift
// (label-flip poison wave, FGSM burst, covariate-shift ramp). The
// executor walks the timeline on a clock.Fake against the real
// internal/cluster tier over replicas a closed-form model of the serving
// stack answers, recording internal/loadgen
// samples — so every scenario runs deterministically, in milliseconds —
// and the scorer reduces the run to a machine-readable scorecard
// (detection delay, sheds, SLO-violation seconds, error-budget burn,
// recovery time) read from what the run recorded, not from prose.
package scenario

import (
	"fmt"
	"math"
	"time"
)

// The engine's fixed quanta. No built-in sets another value, so they are
// constants, not fields.
const (
	// tick is the executor quantum.
	tick = 100 * time.Millisecond
	// sensorEvery is the sensor sampling period.
	sensorEvery = 500 * time.Millisecond
	// heartbeatEvery is the cluster tier's heartbeat interval: the
	// executor sweeps the tier's heartbeats at this period.
	heartbeatEvery = time.Second
	// sloWindow is the SLO evaluation bucket.
	sloWindow = time.Second
	// errorBudget is the fraction of the run allowed to violate the SLO
	// before the budget is fully burned.
	errorBudget = 0.01
	// paretoAlpha is the heavy-tail shape's Pareto exponent (smaller =
	// heavier tail).
	paretoAlpha = 1.5
)

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
	// ShapeDiurnal follows one raised-cosine cycle over the phase, from
	// BaseRPS (trough) to PeakRPS (crest, mid-phase) and back — a
	// compressed day/night cycle.
	ShapeDiurnal ShapeKind = "diurnal"
	// ShapeFlashCrowd holds BaseRPS, then spikes to PeakRPS for the
	// window [PeakAt, PeakAt+PeakWidth] (fractions of the phase), then
	// returns to BaseRPS — a thundering herd.
	ShapeFlashCrowd ShapeKind = "flash-crowd"
	// ShapeHeavyTail draws a Pareto(paretoAlpha) burst multiplier per
	// tick on top of BaseRPS, capped at PeakRPS — bursty heavy-tailed
	// arrivals.
	ShapeHeavyTail ShapeKind = "heavy-tail"
)

// Shape is one phase's traffic curve.
type Shape struct {
	Kind    ShapeKind
	BaseRPS float64
	// PeakRPS is the ramp target / diurnal crest / flash-crowd spike /
	// heavy-tail cap. Unused by steady.
	PeakRPS float64
	// PeakAt and PeakWidth locate the flash-crowd window as fractions of
	// the phase duration.
	PeakAt    float64
	PeakWidth float64
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
		// Trough at phase start, crest half a phase in.
		w := (1 - math.Cos(2*math.Pi*frac)) / 2
		return s.BaseRPS + (s.PeakRPS-s.BaseRPS)*w
	case ShapeFlashCrowd:
		if frac >= s.PeakAt && frac < s.PeakAt+s.PeakWidth {
			return s.PeakRPS
		}
		return s.BaseRPS
	case ShapeHeavyTail:
		if burstU <= 0 {
			burstU = 1
		}
		// Pareto with x_m = 1: multiplier in [1, inf).
		mult := math.Pow(burstU, -1/paretoAlpha)
		return min(s.BaseRPS*mult, s.PeakRPS)
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
		return fmt.Errorf("steady shape needs BaseRPS > 0")
	}
	if s.Kind != ShapeSteady && s.PeakRPS <= 0 {
		return fmt.Errorf("shape %q needs PeakRPS > 0", s.Kind)
	}
	if s.Kind == ShapeFlashCrowd && (s.PeakAt <= 0 || s.PeakWidth <= 0 || s.PeakAt+s.PeakWidth > 1) {
		return fmt.Errorf("flash-crowd needs PeakAt and PeakWidth > 0 with PeakAt+PeakWidth <= 1")
	}
	return nil
}

// FaultKind names an injected infrastructure fault.
type FaultKind string

// Fault kinds the replicas' fault engine injects in front of the
// modelled service.
const (
	// FaultLatency adds Latency (±Jitter) to a Rate fraction of requests.
	FaultLatency FaultKind = "latency"
	// FaultErrorBurst answers a Rate fraction of requests with 503
	// without touching the upstream.
	FaultErrorBurst FaultKind = "error-burst"
	// FaultReplicaKill kills the shard owner of the cluster tier.
	// Unlike the other kinds the kill persists past the phase — only
	// FaultReplicaRestart undoes it — so a campaign can run failed-over
	// traffic across several phases before scoring the recovery. On a
	// one-replica tier every request is refused until the restart.
	FaultReplicaKill FaultKind = "replica-kill"
	// FaultReplicaRestart restarts every killed replica; each rejoins the
	// ring at the tier's next heartbeat sweep.
	FaultReplicaRestart FaultKind = "replica-restart"
)

// Fault configures one phase's fault injection.
type Fault struct {
	Kind FaultKind
	// Rate is the fraction of requests affected, in (0,1]; latency and
	// error-burst faults only.
	Rate float64
	// Latency and Jitter apply to FaultLatency.
	Latency time.Duration
	Jitter  time.Duration
}

// clusterFault reports whether the kind targets the replica tier.
func (f Fault) clusterFault() bool {
	return f.Kind == FaultReplicaKill || f.Kind == FaultReplicaRestart
}

func (f Fault) validate() error {
	switch f.Kind {
	case FaultLatency, FaultErrorBurst:
		if f.Rate <= 0 || f.Rate > 1 {
			return fmt.Errorf("fault %q: Rate %v outside (0,1]", f.Kind, f.Rate)
		}
	case FaultReplicaKill, FaultReplicaRestart:
	default:
		return fmt.Errorf("unknown fault kind %q", f.Kind)
	}
	if f.Kind == FaultLatency && f.Latency <= 0 {
		return fmt.Errorf("latency fault needs Latency > 0")
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
	Kind AdvKind
	// Rate is the poison-wave flip fraction in [0,1].
	Rate float64
	// Target selects the targeted-flip class; negative = untargeted.
	Target int
	// Eps is the FGSM perturbation budget.
	Eps float64
	// Magnitude is the covariate-shift endpoint in feature std-devs.
	Magnitude float64
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

// Phase is one segment of a scenario timeline.
type Phase struct {
	Name     string
	Duration time.Duration
	Shape    Shape
	// Fault, when set, is installed on the cluster tier for the phase
	// and cleared at its end (a replica kill persists; see
	// FaultReplicaKill).
	Fault *Fault
	// Adversarial, when set, perturbs the data stream for the phase.
	Adversarial *Adversarial
}

// SLO is the service-level objective a scenario is scored against, per
// sloWindow bucket.
type SLO struct {
	// LatencyP95 is the per-window p95 latency bound.
	LatencyP95 time.Duration
	// MaxErrorRate is the per-window non-shed error-rate bound.
	MaxErrorRate float64
}

// Scenario is one named campaign: a timeline of phases plus the SLO and
// workload it is scored against.
type Scenario struct {
	Name        string
	Description string
	// UseCase anchors a scenario to the paper ("uc1", "uc2",
	// "capacity", ...).
	UseCase string
	// Workload names the data/model pair the adversarial stream runs
	// against: "fall" (use case 1), "nettraffic" (use case 2), or
	// "synthetic" (a small separable table).
	Workload string
	// Seed drives every stochastic choice (heavy-tail bursts, fault
	// sampling, attack perturbations); fixed seed + fake clock =>
	// byte-identical scorecards.
	Seed int64
	SLO  SLO
	// Replicas sizes the cluster tier the scenario runs against; zero
	// means one replica, on which a replica-kill is a whole-tier outage.
	Replicas int
	Phases   []Phase
}

// Duration sums the phase durations.
func (sc Scenario) Duration() time.Duration {
	var total time.Duration
	for _, p := range sc.Phases {
		total += p.Duration
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
	if sc.SLO.LatencyP95 <= 0 {
		return fmt.Errorf("scenario %q: SLO LatencyP95 must be positive", sc.Name)
	}
	if sc.SLO.MaxErrorRate < 0 || sc.SLO.MaxErrorRate > 1 {
		return fmt.Errorf("scenario %q: SLO MaxErrorRate outside [0,1]", sc.Name)
	}
	switch sc.Workload {
	case WorkloadSynthetic, WorkloadFall, WorkloadNetTraffic:
	default:
		return fmt.Errorf("scenario %q: unknown workload %q", sc.Name, sc.Workload)
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
		if p.Duration <= 0 {
			return fmt.Errorf("scenario %q: phase %q duration must be positive", sc.Name, p.Name)
		}
		if err := p.Shape.validate(); err != nil {
			return fmt.Errorf("scenario %q: phase %q: %w", sc.Name, p.Name, err)
		}
		if p.Fault != nil {
			if err := p.Fault.validate(); err != nil {
				return fmt.Errorf("scenario %q: phase %q: %w", sc.Name, p.Name, err)
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
