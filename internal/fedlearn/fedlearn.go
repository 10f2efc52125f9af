// Package fedlearn implements the distributed machine-learning
// architecture of the paper's Fig. 2(c): federated averaging over clients
// that train locally on private data, with the aggregation variants needed
// to study poisoned clients (plain FedAvg, coordinate-wise trimmed mean,
// and coordinate-wise median). SPATIAL's sensors monitor the global model
// between rounds exactly as they monitor a centrally trained one.
package fedlearn

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dataset"
	"repro/internal/ml"
)

// Aggregator selects how client updates are combined.
type Aggregator int

// Aggregation strategies.
const (
	// FedAvg is the sample-count-weighted mean of client parameters.
	FedAvg Aggregator = iota + 1
	// TrimmedMean drops the highest and lowest fraction of each
	// coordinate before averaging (robust to a minority of poisoned
	// clients).
	TrimmedMean
	// Median takes the coordinate-wise median.
	Median
)

// Client is one federated participant.
type Client struct {
	// Name identifies the client in round reports.
	Name string
	// Data is the client's private shard.
	Data *dataset.Table
}

// Config parameterizes a federated run.
type Config struct {
	// Rounds is the number of federation rounds.
	Rounds int
	// Aggregator selects the combination rule (default FedAvg).
	Aggregator Aggregator
}

// trimFraction is the per-side trim of TrimmedMean.
const trimFraction = 0.2

// RoundStat reports one federation round.
type RoundStat struct {
	Round        int      `json:"round"`
	Participants []string `json:"participants"`
	// EvalAccuracy is the global model's accuracy on the evaluation set
	// after aggregation.
	EvalAccuracy float64 `json:"evalAccuracy"`
}

// Run executes federated training. global must be an initialized
// ml.ParamClassifier (Init or a prior Fit); factory must produce fresh
// local models of the same architecture configured for warm-start local
// training. eval is the held-out set scored after every round.
func Run(global ml.ParamClassifier, factory func() (ml.ParamClassifier, error), clients []Client, eval *dataset.Table, cfg Config) ([]RoundStat, error) {
	if global == nil || factory == nil {
		return nil, fmt.Errorf("fedlearn: nil global model or factory")
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("fedlearn: no clients")
	}
	for i, c := range clients {
		if c.Data == nil || c.Data.Len() == 0 {
			return nil, fmt.Errorf("fedlearn: client %d (%s) has no data", i, c.Name)
		}
	}
	if eval == nil || eval.Len() == 0 {
		return nil, fmt.Errorf("fedlearn: empty evaluation set")
	}
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("fedlearn: Rounds must be positive")
	}
	if cfg.Aggregator == 0 {
		cfg.Aggregator = FedAvg
	}
	globalParams := global.Parameters()
	if len(globalParams) == 0 {
		return nil, fmt.Errorf("fedlearn: global model has no parameters; call Init first")
	}
	var stats []RoundStat
	for round := 0; round < cfg.Rounds; round++ {
		// Every client joins every round, in client order.
		updates := make([][]float64, 0, len(clients))
		weights := make([]float64, 0, len(clients))
		names := make([]string, 0, len(clients))
		for _, c := range clients {
			local, err := factory()
			if err != nil {
				return nil, fmt.Errorf("fedlearn: factory: %w", err)
			}
			if err := local.Init(c.Data.NumFeatures(), c.Data.NumClasses()); err != nil {
				return nil, fmt.Errorf("fedlearn: init local for %s: %w", c.Name, err)
			}
			if err := local.SetParameters(globalParams); err != nil {
				return nil, fmt.Errorf("fedlearn: seed local for %s: %w", c.Name, err)
			}
			if err := local.Fit(c.Data); err != nil {
				return nil, fmt.Errorf("fedlearn: local fit on %s: %w", c.Name, err)
			}
			updates = append(updates, local.Parameters())
			weights = append(weights, float64(c.Data.Len()))
			names = append(names, c.Name)
		}

		agg, err := aggregate(updates, weights, cfg.Aggregator)
		if err != nil {
			return nil, fmt.Errorf("fedlearn: round %d: %w", round, err)
		}
		globalParams = agg
		if err := global.SetParameters(globalParams); err != nil {
			return nil, fmt.Errorf("fedlearn: update global: %w", err)
		}
		metrics, err := ml.Evaluate(global, eval)
		if err != nil {
			return nil, fmt.Errorf("fedlearn: eval round %d: %w", round, err)
		}
		stats = append(stats, RoundStat{Round: round + 1, Participants: names, EvalAccuracy: metrics.Accuracy})
	}
	return stats, nil
}

func aggregate(updates [][]float64, weights []float64, rule Aggregator) ([]float64, error) {
	if len(updates) == 0 {
		return nil, fmt.Errorf("no updates to aggregate")
	}
	dim := len(updates[0])
	for i, u := range updates {
		if len(u) != dim {
			return nil, fmt.Errorf("update %d has %d params, want %d", i, len(u), dim)
		}
	}
	out := make([]float64, dim)
	switch rule {
	case FedAvg:
		var wsum float64
		for _, w := range weights {
			wsum += w
		}
		for i, u := range updates {
			w := weights[i] / wsum
			for j, v := range u {
				out[j] += w * v
			}
		}
	case TrimmedMean:
		k := int(trimFraction * float64(len(updates)))
		col := make([]float64, len(updates))
		for j := 0; j < dim; j++ {
			for i, u := range updates {
				col[i] = u[j]
			}
			sort.Float64s(col)
			kept := col[k : len(col)-k]
			var s float64
			for _, v := range kept {
				s += v
			}
			out[j] = s / float64(len(kept))
		}
	case Median:
		col := make([]float64, len(updates))
		for j := 0; j < dim; j++ {
			for i, u := range updates {
				col[i] = u[j]
			}
			sort.Float64s(col)
			mid := len(col) / 2
			if len(col)%2 == 1 {
				out[j] = col[mid]
			} else {
				out[j] = (col[mid-1] + col[mid]) / 2
			}
		}
	default:
		return nil, fmt.Errorf("unknown aggregator %d", rule)
	}
	return out, nil
}

// PartitionIID splits a dataset into n roughly equal IID client shards.
func PartitionIID(t *dataset.Table, n int, seed int64) ([]Client, error) {
	if n < 1 || n > t.Len() {
		return nil, fmt.Errorf("fedlearn: cannot split %d samples into %d shards", t.Len(), n)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(t.Len())
	clients := make([]Client, n)
	for i := 0; i < n; i++ {
		lo, hi := i*t.Len()/n, (i+1)*t.Len()/n
		clients[i] = Client{
			Name: fmt.Sprintf("client-%02d", i),
			Data: t.Subset(perm[lo:hi]),
		}
	}
	return clients, nil
}
