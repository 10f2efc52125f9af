package fedlearn

import (
	"math/rand"
	"testing"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/ml"
)

func blobs(seed int64, n int) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	tb := dataset.New("blobs", []string{"f0", "f1", "f2"}, []string{"a", "b"})
	for i := 0; i < n; i++ {
		y := i % 2
		_ = tb.Append([]float64{
			float64(y)*3 + rng.NormFloat64(),
			rng.NormFloat64(),
			-float64(y)*2 + rng.NormFloat64(),
		}, y)
	}
	return tb
}

// localLRFactory makes warm-start logistic-regression clients with a few
// local epochs.
func localLRFactory() (ml.ParamClassifier, error) {
	return ml.NewLogReg(ml.LogRegConfig{
		LearningRate: 0.1, Epochs: 3, BatchSize: 16, WarmStart: true, Seed: 1,
	}), nil
}

func newGlobalLR(t *testing.T, dim, classes int) ml.ParamClassifier {
	t.Helper()
	g := ml.NewLogReg(ml.DefaultLogRegConfig())
	if err := g.Init(dim, classes); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFedAvgConvergesOnIIDShards(t *testing.T) {
	data := blobs(1, 600)
	rng := rand.New(rand.NewSource(1))
	train, eval, err := data.StratifiedSplit(rng, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	clients, err := PartitionIID(train, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	global := newGlobalLR(t, train.NumFeatures(), train.NumClasses())
	stats, err := Run(global, localLRFactory, clients, eval, Config{Rounds: 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 15 {
		t.Fatalf("rounds %d", len(stats))
	}
	final := stats[len(stats)-1].EvalAccuracy
	if final < 0.95 {
		t.Fatalf("federated accuracy %.3f < 0.95", final)
	}
	if stats[0].EvalAccuracy > final {
		t.Fatalf("no improvement across rounds: %.3f -> %.3f", stats[0].EvalAccuracy, final)
	}
}

func TestFedAvgWithMLPClients(t *testing.T) {
	data := blobs(2, 400)
	rng := rand.New(rand.NewSource(2))
	train, eval, err := data.StratifiedSplit(rng, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	clients, err := PartitionIID(train, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	mlpCfg := ml.MLPConfig{Hidden: []int{8}, LearningRate: 0.05, Momentum: 0.9, Epochs: 3, BatchSize: 16, WarmStart: true, Seed: 3}
	global := ml.NewMLP(mlpCfg)
	if err := global.Init(train.NumFeatures(), train.NumClasses()); err != nil {
		t.Fatal(err)
	}
	factory := func() (ml.ParamClassifier, error) { return ml.NewMLP(mlpCfg), nil }
	stats, err := Run(global, factory, clients, eval, Config{Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if stats[len(stats)-1].EvalAccuracy < 0.9 {
		t.Fatalf("federated MLP accuracy %.3f", stats[len(stats)-1].EvalAccuracy)
	}
}

func TestClientFractionSampling(t *testing.T) {
	data := blobs(3, 300)
	clients, err := PartitionIID(data, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	global := newGlobalLR(t, data.NumFeatures(), data.NumClasses())
	stats, err := Run(global, localLRFactory, clients, data, Config{Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The fraction is 1: every client joins every round, in client order.
	for _, s := range stats {
		if len(s.Participants) != len(clients) {
			t.Fatalf("round %d had %d participants, want %d", s.Round, len(s.Participants), len(clients))
		}
		for i, name := range s.Participants {
			if name != clients[i].Name {
				t.Fatalf("round %d participant %d is %s, want %s", s.Round, i, name, clients[i].Name)
			}
		}
	}
}

// TestRobustAggregationResistsPoisonedClient: one client holds fully
// label-flipped data. Plain FedAvg absorbs the poisoned update; trimmed
// mean and median cut it off.
func TestRobustAggregationResistsPoisonedClient(t *testing.T) {
	data := blobs(4, 600)
	rng := rand.New(rand.NewSource(4))
	train, eval, err := data.StratifiedSplit(rng, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	clients, err := PartitionIID(train, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Client 0 is malicious: flips every label AND inflates its local
	// update count by claiming the most data (model-poisoning flavour).
	poisoned, err := attack.LabelFlip(clients[0].Data, 1.0, 9)
	if err != nil {
		t.Fatal(err)
	}
	clients[0].Data = poisoned

	accWith := func(agg Aggregator) float64 {
		global := newGlobalLR(t, train.NumFeatures(), train.NumClasses())
		stats, err := Run(global, localLRFactory, clients, eval, Config{Rounds: 12, Aggregator: agg})
		if err != nil {
			t.Fatal(err)
		}
		return stats[len(stats)-1].EvalAccuracy
	}
	plain := accWith(FedAvg)
	trimmed := accWith(TrimmedMean)
	median := accWith(Median)
	if trimmed < plain-0.02 {
		t.Fatalf("trimmed mean (%.3f) should not trail FedAvg (%.3f) under poisoning", trimmed, plain)
	}
	if median < 0.85 {
		t.Fatalf("median aggregation accuracy %.3f", median)
	}
}

func TestRunValidation(t *testing.T) {
	data := blobs(5, 100)
	clients, err := PartitionIID(data, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	global := newGlobalLR(t, data.NumFeatures(), data.NumClasses())
	if _, err := Run(nil, localLRFactory, clients, data, Config{Rounds: 1}); err == nil {
		t.Fatal("expected nil-global error")
	}
	if _, err := Run(global, localLRFactory, nil, data, Config{Rounds: 1}); err == nil {
		t.Fatal("expected no-clients error")
	}
	if _, err := Run(global, localLRFactory, clients, data, Config{Rounds: 0}); err == nil {
		t.Fatal("expected rounds error")
	}
	empty := dataset.New("e", data.FeatureNames, data.ClassNames)
	if _, err := Run(global, localLRFactory, clients, empty, Config{Rounds: 1}); err == nil {
		t.Fatal("expected empty-eval error")
	}
	uninit := ml.NewLogReg(ml.DefaultLogRegConfig())
	if _, err := Run(uninit, localLRFactory, clients, data, Config{Rounds: 1}); err == nil {
		t.Fatal("expected uninitialized-global error")
	}
}

func TestPartitionIID(t *testing.T) {
	data := blobs(6, 103)
	clients, err := PartitionIID(data, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range clients {
		if c.Data.Len() == 0 {
			t.Fatal("empty shard")
		}
		total += c.Data.Len()
	}
	if total != 103 {
		t.Fatalf("shards cover %d of 103 samples", total)
	}
	if _, err := PartitionIID(data, 0, 1); err == nil {
		t.Fatal("expected shard-count error")
	}
}

func TestAggregateTrimmedMeanAndMedian(t *testing.T) {
	updates := [][]float64{{1, 10}, {2, 20}, {3, 30}, {4, 40}, {100, -100}}
	weights := []float64{1, 1, 1, 1, 1}
	trimmed, err := aggregate(updates, weights, TrimmedMean)
	if err != nil {
		t.Fatal(err)
	}
	// Trim 0.2 of 5 = 1 from each side: mean of {2,3,4} and {10,20,30}.
	if trimmed[0] != 3 || trimmed[1] != 20 {
		t.Fatalf("trimmed %v", trimmed)
	}
	median, err := aggregate(updates, weights, Median)
	if err != nil {
		t.Fatal(err)
	}
	if median[0] != 3 || median[1] != 20 {
		t.Fatalf("median %v", median)
	}
	even, err := aggregate([][]float64{{1, 10}, {2, 20}, {3, 30}, {100, -100}}, weights[:4], Median)
	if err != nil {
		t.Fatal(err)
	}
	if even[0] != 2.5 || even[1] != 15 {
		t.Fatalf("median of four %v", even)
	}
	if _, err := aggregate([][]float64{{1}, {1, 2}}, []float64{1, 1}, FedAvg); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

// TestFedAvgStillLearnsUnderNonIID: label-skewed shards (each client
// holds 90 % of one class and 10 % of the other) slow FedAvg but must not
// break it on this easy task.
func TestFedAvgStillLearnsUnderNonIID(t *testing.T) {
	data := blobs(23, 600)
	var byClass [2][]int
	for i, y := range data.Y {
		byClass[y] = append(byClass[y], i)
	}
	clients := make([]Client, 6)
	for c := range clients {
		major, minor := byClass[c%2], byClass[1-c%2]
		shard := c / 2 // three clients per majority class
		idx := append([]int{}, major[shard*90:shard*90+90]...)
		idx = append(idx, minor[shard*10:shard*10+10]...)
		clients[c] = Client{Name: "skewed", Data: data.Subset(idx)}
	}
	global := newGlobalLR(t, data.NumFeatures(), data.NumClasses())
	stats, err := Run(global, localLRFactory, clients, data, Config{Rounds: 15})
	if err != nil {
		t.Fatal(err)
	}
	if final := stats[len(stats)-1].EvalAccuracy; final < 0.9 {
		t.Fatalf("non-IID FedAvg accuracy %.3f", final)
	}
}
