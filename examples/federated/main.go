// Federated learning (Fig. 2c): the distributed ML architecture the paper
// describes — clients train locally and a server aggregates — monitored by
// a SPATIAL sensor per round, attacked by a poisoned client, and defended
// with robust aggregation.
//
//	go run ./examples/federated
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/fedlearn"
	"repro/internal/ml"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The fall-detection task, distributed across 8 hospitals.
	data, err := datagen.UniMiBBinary(datagen.UniMiBConfig{Samples: 900, Seed: 11})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(11))
	train, eval, err := data.StratifiedSplit(rng, 0.85)
	if err != nil {
		return err
	}
	scaler, err := dataset.FitScaler(train)
	if err != nil {
		return err
	}
	if err := scaler.Transform(train); err != nil {
		return err
	}
	if err := scaler.Transform(eval); err != nil {
		return err
	}
	clients, err := fedlearn.PartitionIID(train, 8, 11)
	if err != nil {
		return err
	}
	fmt.Printf("%d clients, ~%d windows each, %d eval windows\n", len(clients), clients[0].Data.Len(), eval.Len())

	lrCfg := ml.LogRegConfig{LearningRate: 0.1, Epochs: 2, BatchSize: 32, WarmStart: true, Seed: 1}
	factory := func() (ml.ParamClassifier, error) { return ml.NewLogReg(lrCfg), nil }
	runFL := func(clients []fedlearn.Client, agg fedlearn.Aggregator) ([]fedlearn.RoundStat, error) {
		global := ml.NewLogReg(ml.DefaultLogRegConfig())
		if err := global.Init(train.NumFeatures(), train.NumClasses()); err != nil {
			return nil, err
		}
		return fedlearn.Run(global, factory, clients, eval, fedlearn.Config{Rounds: 10, Aggregator: agg})
	}

	fmt.Println("\nhonest federation (FedAvg):")
	stats, err := runFL(clients, fedlearn.FedAvg)
	if err != nil {
		return err
	}
	for _, s := range stats {
		if s.Round%2 == 0 {
			// A SPATIAL performance sensor would publish exactly this
			// reading to the dashboard each round.
			fmt.Printf("  round %2d: global accuracy %.1f%%\n", s.Round, s.EvalAccuracy*100)
		}
	}

	// Two clients turn malicious: their local labels are fully flipped.
	poisonedClients := make([]fedlearn.Client, len(clients))
	copy(poisonedClients, clients)
	for _, idx := range []int{0, 1} {
		flipped, err := attack.LabelFlip(clients[idx].Data, 1.0, int64(idx+40))
		if err != nil {
			return err
		}
		poisonedClients[idx] = fedlearn.Client{Name: clients[idx].Name + "-poisoned", Data: flipped}
	}

	fmt.Println("\n2/8 clients poisoned:")
	for _, agg := range []struct {
		name string
		agg  fedlearn.Aggregator
	}{{"FedAvg", fedlearn.FedAvg}, {"trimmed mean", fedlearn.TrimmedMean}, {"median", fedlearn.Median}} {
		stats, err := runFL(poisonedClients, agg.agg)
		if err != nil {
			return err
		}
		fmt.Printf("  %-13s final global accuracy %.1f%%\n", agg.name, stats[len(stats)-1].EvalAccuracy*100)
	}
	fmt.Println("\n-> robust aggregation is the architectural counterpart of label sanitization for Fig 2(c) deployments")
	return nil
}
