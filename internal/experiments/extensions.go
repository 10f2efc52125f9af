package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/fedlearn"
	"repro/internal/ml"
	"repro/internal/privacy"
)

// The ext-* experiments go beyond the paper's figures: they quantify the
// future-work capabilities the paper calls for (corrective actions,
// privacy-preserving computation, the distributed architecture of
// Fig. 2c) with the same harness and reporting style.

// ExtDefensePoint is one row of the sanitization-recovery sweep.
type ExtDefensePoint struct {
	Rate         float64 `json:"rate"`
	PoisonedAcc  float64 `json:"poisonedAcc"`
	SanitizedAcc float64 `json:"sanitizedAcc"`
	Relabeled    int     `json:"relabeled"`
}

// ExtDefenseResult reports how much accuracy kNN-consensus label
// sanitization recovers after label-flipping poisoning (the §VII
// corrective action), on the use-case-2 task with the NN. The 21-d
// normalized flow-feature space is where kNN consensus is appropriate;
// on raw high-dimensional time series (use case 1) a distance-based
// defense needs a learned embedding first.
type ExtDefenseResult struct {
	CleanAccuracy float64           `json:"cleanAccuracy"`
	Points        []ExtDefensePoint `json:"points"`
}

// ExtDefense sweeps label-flip rates and measures the model before and
// after sanitization.
func ExtDefense(cfg Config) (ExtDefenseResult, error) {
	train, test, _, err := uc2Data(cfg)
	if err != nil {
		return ExtDefenseResult{}, err
	}
	model, err := fitByName("nn", train, cfg.seed())
	if err != nil {
		return ExtDefenseResult{}, err
	}
	cleanMetrics, err := ml.Evaluate(model, test)
	if err != nil {
		return ExtDefenseResult{}, err
	}

	rates := []float64{0.20, 0.30, 0.40}
	if cfg.Quick {
		rates = []float64{0.30}
	}
	res := ExtDefenseResult{CleanAccuracy: cleanMetrics.Accuracy}
	for _, rate := range rates {
		poisoned, err := attack.LabelFlip(train, rate, cfg.seed()+int64(rate*100))
		if err != nil {
			return ExtDefenseResult{}, err
		}
		dirty, err := fitByName("nn", poisoned, cfg.seed())
		if err != nil {
			return ExtDefenseResult{}, err
		}
		dirtyMetrics, err := ml.Evaluate(dirty, test)
		if err != nil {
			return ExtDefenseResult{}, err
		}
		sanitized, rep, err := defense.SanitizeLabels(poisoned, 9, defense.Relabel)
		if err != nil {
			return ExtDefenseResult{}, err
		}
		repaired, err := fitByName("nn", sanitized, cfg.seed())
		if err != nil {
			return ExtDefenseResult{}, err
		}
		repairedMetrics, err := ml.Evaluate(repaired, test)
		if err != nil {
			return ExtDefenseResult{}, err
		}
		res.Points = append(res.Points, ExtDefensePoint{
			Rate:         rate,
			PoisonedAcc:  dirtyMetrics.Accuracy,
			SanitizedAcc: repairedMetrics.Accuracy,
			Relabeled:    rep.Relabeled,
		})
	}

	w := cfg.out()
	fmt.Fprintf(w, "\nExtension: label-sanitization recovery (UC2 NN, clean %.1f%%)\n", res.CleanAccuracy*100)
	fmt.Fprintf(w, "%6s %10s %11s %10s\n", "rate", "poisoned", "sanitized", "relabeled")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%5.0f%% %9.1f%% %10.1f%% %10d\n", p.Rate*100, p.PoisonedAcc*100, p.SanitizedAcc*100, p.Relabeled)
	}
	return res, nil
}

// ExtPrivacyPoint is one row of the DP privacy/utility sweep. Epsilon is
// +Inf at noise 0: training without noise spends an unbounded budget.
type ExtPrivacyPoint struct {
	Noise     float64 `json:"noise"`
	Epsilon   float64 `json:"epsilon"`
	Accuracy  float64 `json:"accuracy"`
	Advantage float64 `json:"advantage"`
}

// MarshalJSON writes an infinite Epsilon as null, since JSON has no
// infinity; the printed table keeps "+Inf".
func (p ExtPrivacyPoint) MarshalJSON() ([]byte, error) {
	var eps *float64
	if !math.IsInf(p.Epsilon, 0) {
		eps = &p.Epsilon
	}
	return json.Marshal(struct {
		Noise     float64  `json:"noise"`
		Epsilon   *float64 `json:"epsilon"`
		Accuracy  float64  `json:"accuracy"`
		Advantage float64  `json:"advantage"`
	}{p.Noise, eps, p.Accuracy, p.Advantage})
}

// ExtPrivacyResult reports the privacy/utility trade of DP-SGD training on
// use case 2, measured with the membership-inference sensor.
type ExtPrivacyResult struct {
	// Overfit is the reference leakage of an unconstrained tree.
	OverfitAdvantage float64           `json:"overfitAdvantage"`
	Points           []ExtPrivacyPoint `json:"points"`
}

// ExtPrivacy sweeps the DP noise multiplier.
func ExtPrivacy(cfg Config) (ExtPrivacyResult, error) {
	train, test, _, err := uc2Data(cfg)
	if err != nil {
		return ExtPrivacyResult{}, err
	}
	overfit := ml.NewTree(ml.TreeConfig{MaxDepth: 0, MinLeaf: 1, Seed: cfg.seed()})
	if err := overfit.Fit(train); err != nil {
		return ExtPrivacyResult{}, err
	}
	leak, err := privacy.MembershipInference(overfit, train, test)
	if err != nil {
		return ExtPrivacyResult{}, err
	}

	noises := []float64{0, 0.5, 1.0, 2.0}
	if cfg.Quick {
		noises = []float64{0, 1.0}
	}
	res := ExtPrivacyResult{OverfitAdvantage: leak.Advantage}
	for _, noise := range noises {
		dpCfg := privacy.DefaultDPLogRegConfig()
		dpCfg.NoiseMultiplier = noise
		dpCfg.Seed = cfg.seed()
		m := privacy.NewDPLogReg(dpCfg)
		if err := m.Fit(train); err != nil {
			return ExtPrivacyResult{}, err
		}
		metrics, err := ml.Evaluate(m, test)
		if err != nil {
			return ExtPrivacyResult{}, err
		}
		mi, err := privacy.MembershipInference(m, train, test)
		if err != nil {
			return ExtPrivacyResult{}, err
		}
		eps, err := m.Epsilon(1e-5)
		if err != nil {
			return ExtPrivacyResult{}, err
		}
		res.Points = append(res.Points, ExtPrivacyPoint{
			Noise:     noise,
			Epsilon:   eps,
			Accuracy:  metrics.Accuracy,
			Advantage: mi.Advantage,
		})
	}

	w := cfg.out()
	fmt.Fprintf(w, "\nExtension: DP privacy/utility on UC2 (overfit-tree MI advantage %.2f)\n", res.OverfitAdvantage)
	fmt.Fprintf(w, "%6s %10s %9s %11s\n", "noise", "epsilon", "acc", "advantage")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%6.1f %10.2f %8.1f%% %11.2f\n", p.Noise, p.Epsilon, p.Accuracy*100, p.Advantage)
	}
	return res, nil
}

// ExtFederatedResult reports the Fig. 2(c) federation study: accuracy per
// round, then final accuracy under poisoned clients per aggregator.
type ExtFederatedResult struct {
	Rounds   []fedlearn.RoundStat `json:"rounds"`
	Poisoned map[string]float64   `json:"poisoned"` // aggregator -> final accuracy
}

// ExtFederated partitions use case 2 across clients, trains with FedAvg,
// then poisons a quarter of the clients and compares aggregators.
func ExtFederated(cfg Config) (ExtFederatedResult, error) {
	train, test, _, err := uc2Data(cfg)
	if err != nil {
		return ExtFederatedResult{}, err
	}
	numClients, rounds := 8, 12
	if cfg.Quick {
		numClients, rounds = 4, 6
	}
	clients, err := fedlearn.PartitionIID(train, numClients, cfg.seed())
	if err != nil {
		return ExtFederatedResult{}, err
	}
	lrCfg := ml.LogRegConfig{LearningRate: 0.2, Epochs: 3, BatchSize: 16, WarmStart: true, Seed: cfg.seed()}
	factory := func() (ml.ParamClassifier, error) { return ml.NewLogReg(lrCfg), nil }
	runFL := func(cs []fedlearn.Client, agg fedlearn.Aggregator) ([]fedlearn.RoundStat, error) {
		global := ml.NewLogReg(ml.DefaultLogRegConfig())
		if err := global.Init(train.NumFeatures(), train.NumClasses()); err != nil {
			return nil, err
		}
		return fedlearn.Run(global, factory, cs, test, fedlearn.Config{Rounds: rounds, Aggregator: agg})
	}

	honest, err := runFL(clients, fedlearn.FedAvg)
	if err != nil {
		return ExtFederatedResult{}, err
	}
	res := ExtFederatedResult{Rounds: honest, Poisoned: make(map[string]float64)}

	poisoned := make([]fedlearn.Client, len(clients))
	copy(poisoned, clients)
	rng := rand.New(rand.NewSource(cfg.seed()))
	for i := 0; i < len(clients)/4; i++ {
		flipped, err := attack.LabelFlip(clients[i].Data, 1.0, rng.Int63())
		if err != nil {
			return ExtFederatedResult{}, err
		}
		poisoned[i] = fedlearn.Client{Name: clients[i].Name + "-poisoned", Data: flipped}
	}
	for name, agg := range map[string]fedlearn.Aggregator{
		"fedavg": fedlearn.FedAvg, "trimmed-mean": fedlearn.TrimmedMean, "median": fedlearn.Median,
	} {
		stats, err := runFL(poisoned, agg)
		if err != nil {
			return ExtFederatedResult{}, err
		}
		res.Poisoned[name] = stats[len(stats)-1].EvalAccuracy
	}

	w := cfg.out()
	fmt.Fprintf(w, "\nExtension: federated learning on UC2 (Fig 2c; %d clients)\n", numClients)
	fmt.Fprintf(w, "honest FedAvg: round 1 %.1f%% -> round %d %.1f%%\n",
		honest[0].EvalAccuracy*100, rounds, honest[len(honest)-1].EvalAccuracy*100)
	fmt.Fprintf(w, "with %d/%d clients poisoned:\n", len(clients)/4, numClients)
	for _, name := range []string{"fedavg", "trimmed-mean", "median"} {
		fmt.Fprintf(w, "  %-13s %.1f%%\n", name, res.Poisoned[name]*100)
	}
	return res, nil
}
