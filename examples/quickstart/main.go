// Quickstart: build an AI pipeline, gauge its trustworthy properties with
// AI sensors, and aggregate a trust report — the minimal SPATIAL loop.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/sensor"
	"repro/internal/serving"
	"repro/internal/xai"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	// 1. A standard AI pipeline: collect -> clean -> split -> train ->
	//    evaluate, instrumented with a hook that reports every stage.
	load := func(context.Context) (*dataset.Table, error) {
		return datagen.UniMiBBinary(datagen.UniMiBConfig{Samples: 600, Seed: 1})
	}
	p, err := pipeline.Standard(load, "rf", 0.8, 1)
	if err != nil {
		return err
	}
	if err := p.AddHook(func(_ context.Context, stage pipeline.Stage, _ *pipeline.State) error {
		fmt.Printf("pipeline stage %-9s done\n", stage)
		return nil
	}); err != nil {
		return err
	}
	state, _, err := p.Run(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("\ntrained %s: accuracy %.1f%%, recall %.1f%%\n",
		state.Model.Name(), state.Metrics.Accuracy*100, state.Metrics.Recall*100)

	// 2. Deploy into the model-serving runtime: the registry addresses
	//    the model as "fall@1" (or by its content id), and concurrent
	//    predictions coalesce into micro-batches behind admission control.
	rt := serving.New(serving.Config{})
	defer rt.Close()
	ref, err := rt.Registry().Register("fall", state.Model)
	if err != nil {
		return err
	}
	_, classes, err := rt.Predict(ctx, ref.String(), state.Test.X[:8])
	if err != nil {
		return err
	}
	correct := 0
	for i, c := range classes {
		if c == state.Test.Y[i] {
			correct++
		}
	}
	fmt.Printf("served %d instances through %s (%s...): %d/%d correct\n",
		len(classes), ref, ref.ID[:18], correct, len(classes))

	// 3. Explain one prediction with KernelSHAP.
	shap := &xai.KernelSHAP{
		Model:      state.Model,
		Background: state.Train.X[:5],
		Samples:    200,
		Seed:       1,
	}
	instance := state.Test.X[0]
	attr, err := shap.Explain(instance, ml.Predict(state.Model, instance))
	if err != nil {
		return err
	}
	order, imp := xai.FeatureImportance([][]float64{attr})
	fmt.Println("\ntop SHAP features for one prediction:")
	for _, j := range order[:5] {
		fmt.Printf("  %-8s %+.4f\n", state.Test.FeatureNames[j], imp[j])
	}

	// 4. AI sensors gauge trustworthy properties continuously.
	manager := sensor.NewManager(nil)
	accuracy := state.Metrics.Accuracy
	if err := manager.Register(&sensor.Sensor{
		Name:     "fall-model-accuracy",
		Property: sensor.PropPerformance,
		Interval: 200 * time.Millisecond,
		Collector: sensor.CollectorFunc(func(context.Context) (float64, map[string]float64, error) {
			return accuracy, nil, nil
		}),
		Min: sensor.Float64Ptr(0.8),
	}); err != nil {
		return err
	}
	if err := manager.Register(&sensor.Sensor{
		Name:     "fall-model-explainability",
		Property: sensor.PropExplainability,
		Interval: 200 * time.Millisecond,
		Collector: sensor.CollectorFunc(func(context.Context) (float64, map[string]float64, error) {
			// A simple explainability score: attribution mass on the
			// top-10% features (focused explanations score higher).
			var top, total float64
			for i, j := range order {
				v := imp[j]
				total += v
				if i < len(order)/10 {
					top += v
				}
			}
			if total == 0 {
				return 0, nil, nil
			}
			return top / total, nil, nil
		}),
	}); err != nil {
		return err
	}
	for _, name := range []string{"fall-model-accuracy", "fall-model-explainability"} {
		if _, err := manager.CollectOnce(ctx, name); err != nil {
			return err
		}
	}

	// 5. Aggregate into a trust report.
	var readings []sensor.Reading
	for _, name := range manager.Names() {
		if r, ok := manager.Last(name); ok {
			readings = append(readings, r)
		}
	}
	report, err := core.Trust(readings, core.DefaultTrustWeights())
	if err != nil {
		return err
	}
	fmt.Printf("\ntrust report: score %.2f, %d alert(s)\n", report.Score, report.Alerts)
	for prop, v := range report.PerProperty {
		fmt.Printf("  %-15s %.3f\n", prop, v)
	}
	return nil
}
