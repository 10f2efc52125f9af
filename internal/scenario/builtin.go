package scenario

import "time"

// Builtins returns the scenario library, name-sorted: the paper's two
// evaluation stories (uc1-fall-poison, uc2-net-fgsm) and its capacity
// study, generalized across the traffic shapes, faults and adversarial
// actions the engine composes. Each is deterministic under clock.Fake
// with its fixed seed, so `spatial-scenario -smoke` replays all of them
// and CI diffs byte-identical scorecards. Every call builds the list
// afresh, so a caller may change what it gets without touching anyone
// else's.
func Builtins() []Scenario {
	return []Scenario{
		// The capacity-load study: traffic ramps past the serving tier's
		// admission watermark. A healthy stack sheds (429) with a flat
		// latency profile instead of collapsing; the scorecard separates
		// sheds from SLO-violation seconds exactly like the paper's fig-8
		// reading.
		{
			Name:        "capacity-ramp",
			Description: "Paper capacity study: ramp through saturation, score sheds vs latency collapse, then recover.",
			UseCase:     "capacity",
			Workload:    WorkloadSynthetic,
			Seed:        3,
			SLO:         SLO{LatencyP95: 200 * time.Millisecond, MaxErrorRate: 0.02},
			Phases: []Phase{
				{Name: "warmup", Duration: 5 * time.Second,
					Shape: Shape{Kind: ShapeSteady, BaseRPS: 30}},
				{Name: "ramp", Duration: 20 * time.Second,
					Shape: Shape{Kind: ShapeRamp, BaseRPS: 30, PeakRPS: 400}},
				{Name: "cooldown", Duration: 6 * time.Second,
					Shape: Shape{Kind: ShapeSteady, BaseRPS: 40}},
			},
		},

		// The cluster tier's failover story: a flash crowd builds, the
		// shard owner is killed at its peak, traffic reroutes to ring
		// successors (counted in Faults.Rerouted) while the crowd is still
		// up, and the replica restarts before the cooldown. Scored on
		// recovery time after the restart and on the rerouted-request
		// count — both deterministic under the fake clock.
		{
			Name:        "cluster-failover",
			Description: "Kill the shard owner mid-flash-crowd; score rerouted traffic and post-restart recovery.",
			UseCase:     "cluster",
			Workload:    WorkloadSynthetic,
			Seed:        8,
			SLO:         SLO{LatencyP95: 250 * time.Millisecond, MaxErrorRate: 0.02},
			Cluster:     &ClusterSpec{Replicas: 3},
			Phases: []Phase{
				{Name: "baseline", Duration: 6 * time.Second,
					Shape: Shape{Kind: ShapeSteady, BaseRPS: 40}},
				{Name: "crowd-builds", Duration: 4 * time.Second,
					Shape: Shape{Kind: ShapeRamp, BaseRPS: 40, PeakRPS: 140}},
				{Name: "owner-killed", Duration: 6 * time.Second,
					Shape: Shape{Kind: ShapeSteady, BaseRPS: 140},
					Fault: &Fault{Kind: FaultReplicaKill}},
				{Name: "owner-restarts", Duration: 4 * time.Second,
					Shape: Shape{Kind: ShapeSteady, BaseRPS: 80},
					Fault: &Fault{Kind: FaultReplicaRestart}},
				{Name: "cooldown", Duration: 6 * time.Second,
					Shape: Shape{Kind: ShapeSteady, BaseRPS: 40}},
			},
		},

		// A compressed day/night cycle per phase with an induced-latency
		// fault during the second crest: scored on SLO-violation seconds
		// during the fault and recovery time after it clears.
		{
			Name:        "diurnal-latency-chaos",
			Description: "Diurnal traffic with an induced-latency fault at the crest; scored on SLO burn and recovery.",
			UseCase:     "chaos",
			Workload:    WorkloadSynthetic,
			Seed:        5,
			SLO:         SLO{LatencyP95: 150 * time.Millisecond, MaxErrorRate: 0.02},
			Phases: []Phase{
				{Name: "cycle-1", Duration: 10 * time.Second,
					Shape: Shape{Kind: ShapeDiurnal, BaseRPS: 20, PeakRPS: 80}},
				{Name: "cycle-2-slow", Duration: 10 * time.Second,
					Shape: Shape{Kind: ShapeDiurnal, BaseRPS: 20, PeakRPS: 80},
					Fault: &Fault{Kind: FaultLatency, Latency: 250 * time.Millisecond, Jitter: 50 * time.Millisecond, Rate: 0.7}},
				{Name: "cycle-3", Duration: 10 * time.Second,
					Shape: Shape{Kind: ShapeDiurnal, BaseRPS: 20, PeakRPS: 80}},
			},
		},

		// An upstream error burst behind steady traffic: the SLO
		// error-rate bound absorbs it; the scorecard's recovery time
		// measures how fast the error rate returns under the bound once
		// the burst ends.
		{
			Name:        "error-burst-breaker",
			Description: "Upstream error burst from the fault engine; scored on error-rate SLO burn and recovery time.",
			UseCase:     "chaos",
			Workload:    WorkloadSynthetic,
			Seed:        6,
			SLO:         SLO{LatencyP95: 150 * time.Millisecond, MaxErrorRate: 0.05},
			Phases: []Phase{
				{Name: "baseline", Duration: 6 * time.Second,
					Shape: Shape{Kind: ShapeSteady, BaseRPS: 50}},
				{Name: "error-burst", Duration: 8 * time.Second,
					Shape: Shape{Kind: ShapeSteady, BaseRPS: 50},
					Fault: &Fault{Kind: FaultErrorBurst, Rate: 0.5}},
				{Name: "recovery", Duration: 8 * time.Second,
					Shape: Shape{Kind: ShapeSteady, BaseRPS: 50}},
			},
		},

		// Flash crowd plus a poison wave timed to hide inside it: the
		// spike stresses admission control while the wave corrupts the
		// stream, probing whether detection delay survives overload.
		{
			Name:        "flash-crowd-poison",
			Description: "Flash-crowd spike with a poison wave hidden inside it; detection must survive overload.",
			UseCase:     "composed",
			Workload:    WorkloadFall,
			Seed:        4,
			SLO:         SLO{LatencyP95: 200 * time.Millisecond, MaxErrorRate: 0.02},
			Phases: []Phase{
				{Name: "baseline", Duration: 6 * time.Second,
					Shape: Shape{Kind: ShapeSteady, BaseRPS: 40}},
				{Name: "crowd-poison", Duration: 10 * time.Second,
					Shape:       Shape{Kind: ShapeFlashCrowd, BaseRPS: 40, PeakRPS: 300, PeakAt: 0.3, PeakWidth: 0.4},
					Adversarial: &Adversarial{Kind: AdvPoisonWave, Rate: 0.35, Target: -1}},
				{Name: "recovery", Duration: 8 * time.Second,
					Shape: Shape{Kind: ShapeSteady, BaseRPS: 40}},
			},
		},

		// Heavy-tailed arrivals with a covariate-shift ramp underneath:
		// the drift detector must separate a slow distribution shift from
		// bursty load noise.
		{
			Name:        "heavy-tail-drift",
			Description: "Heavy-tailed bursts over a covariate-shift ramp; drift detection under load noise.",
			UseCase:     "drift",
			Workload:    WorkloadNetTraffic,
			Seed:        7,
			SLO:         SLO{LatencyP95: 250 * time.Millisecond, MaxErrorRate: 0.02},
			Phases: []Phase{
				{Name: "baseline", Duration: 8 * time.Second,
					Shape: Shape{Kind: ShapeHeavyTail, BaseRPS: 30, PeakRPS: 200}},
				{Name: "shift-ramp", Duration: 12 * time.Second,
					Shape:       Shape{Kind: ShapeHeavyTail, BaseRPS: 30, PeakRPS: 200},
					Adversarial: &Adversarial{Kind: AdvCovariateShift, Magnitude: 2.5}},
				{Name: "settled", Duration: 6 * time.Second,
					Shape: Shape{Kind: ShapeSteady, BaseRPS: 30}},
			},
		},

		// Use case 1 (fall detection, UniMiB-style): a label-flip poison
		// wave hits the training feedback stream under steady traffic.
		// The poison sensor (prediction/label disagreement) and the drift
		// sensor watch the stream; the scorecard's detection delay is the
		// time from wave start to the first alert.
		{
			Name:        "uc1-fall-poison",
			Description: "Paper use case 1: label-flip poisoning of the fall-detection stream under steady traffic.",
			UseCase:     "uc1",
			Workload:    WorkloadFall,
			Seed:        1,
			SLO:         SLO{LatencyP95: 150 * time.Millisecond, MaxErrorRate: 0.02},
			Phases: []Phase{
				{Name: "baseline", Duration: 8 * time.Second,
					Shape: Shape{Kind: ShapeSteady, BaseRPS: 40}},
				{Name: "poison-wave", Duration: 10 * time.Second,
					Shape:       Shape{Kind: ShapeSteady, BaseRPS: 40},
					Adversarial: &Adversarial{Kind: AdvPoisonWave, Rate: 0.3, Target: -1}},
				{Name: "recovery", Duration: 8 * time.Second,
					Shape: Shape{Kind: ShapeSteady, BaseRPS: 40}},
			},
		},

		// Use case 2 (network-traffic classification): an FGSM burst
		// crafts white-box evasion samples against the live model.
		// Detection comes from the poison sensor (prediction/label
		// agreement collapses on evasive inputs) and the drift sensor (the
		// ±eps perturbation shifts every feature's distribution).
		{
			Name:        "uc2-net-fgsm",
			Description: "Paper use case 2: FGSM evasion burst against the network-traffic classifier.",
			UseCase:     "uc2",
			Workload:    WorkloadNetTraffic,
			Seed:        2,
			SLO:         SLO{LatencyP95: 150 * time.Millisecond, MaxErrorRate: 0.02},
			Phases: []Phase{
				{Name: "baseline", Duration: 8 * time.Second,
					Shape: Shape{Kind: ShapeSteady, BaseRPS: 40}},
				{Name: "fgsm-burst", Duration: 8 * time.Second,
					Shape:       Shape{Kind: ShapeSteady, BaseRPS: 40},
					Adversarial: &Adversarial{Kind: AdvFGSMBurst, Eps: 0.8}},
				{Name: "recovery", Duration: 6 * time.Second,
					Shape: Shape{Kind: ShapeSteady, BaseRPS: 40}},
			},
		},
	}
}
