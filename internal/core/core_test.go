package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/sensor"
	"repro/internal/service"
)

func TestTaxonomyIsConsistent(t *testing.T) {
	if err := ValidateTaxonomy(); err != nil {
		t.Fatal(err)
	}
}

func TestTaxonomyPaperPairingsHold(t *testing.T) {
	listed := make(map[string]map[string]bool) // attack name -> algorithms
	whiteBox := make(map[string]bool)
	for _, a := range Attacks() {
		listed[a.Name] = make(map[string]bool)
		for _, algo := range a.Algorithms {
			listed[a.Name][algo] = true
		}
		whiteBox[a.Name] = a.WhiteBox
	}
	// Use case 1: label flipping applies to all five UC1 models.
	for _, algo := range []string{"lr", "dt", "rf", "mlp", "dnn"} {
		if !listed["random label flipping"][algo] {
			t.Fatalf("label flipping missing for %s", algo)
		}
	}
	// Use case 2: FGSM is white-box on the NN, transfer on tree models.
	if listed["FGSM"]["dnn"] && !whiteBox["FGSM"] {
		t.Fatal("FGSM should be white-box")
	}
	if listed["FGSM"]["xgb"] {
		t.Fatal("direct FGSM should not list tree ensembles")
	}
	if !listed["transfer FGSM"]["xgb"] {
		t.Fatal("transfer FGSM missing for xgb")
	}
}

func TestAttacksAtStage(t *testing.T) {
	collect, deploy := 0, map[AttackClass]bool{}
	for _, a := range Attacks() {
		switch a.Stage {
		case pipeline.StageCollect:
			collect++
			if a.Class != ClassPoisoning {
				t.Fatalf("collect-stage attack %q is %s, want poisoning", a.Name, a.Class)
			}
		case pipeline.StageDeploy:
			deploy[a.Class] = true
		}
	}
	if collect == 0 {
		t.Fatal("no collect-stage attacks")
	}
	if !deploy[ClassEvasion] || !deploy[ClassModelStealing] {
		t.Fatalf("deploy-stage attack classes incomplete: %v", deploy)
	}
}

func TestVulnerabilitiesCoverCIA(t *testing.T) {
	seen := map[CIA]bool{}
	for _, v := range Vulnerabilities() {
		seen[v.CIA] = true
	}
	for _, c := range []CIA{Confidentiality, Integrity, Availability} {
		if !seen[c] {
			t.Fatalf("no vulnerability covers %s", c)
		}
	}
	if len(VulnerabilitiesAtStage(pipeline.StageDeploy)) < 2 {
		t.Fatal("deployment should have multiple documented vulnerabilities")
	}
}

func TestTrustScoreAggregation(t *testing.T) {
	readings := []sensor.Reading{
		{Sensor: "acc", Property: sensor.PropPerformance, Value: 0.9},
		{Sensor: "res", Property: sensor.PropResilience, Value: 0.6},
		{Sensor: "xai", Property: sensor.PropExplainability, Value: 0.8, Alert: true},
	}
	rep, err := Trust(readings, DefaultTrustWeights())
	if err != nil {
		t.Fatal(err)
	}
	want := 0.4*0.9 + 0.3*0.6 + 0.3*0.8
	if math.Abs(rep.Score-want) > 1e-12 {
		t.Fatalf("score %v, want %v", rep.Score, want)
	}
	if rep.Alerts != 1 {
		t.Fatalf("alerts %d", rep.Alerts)
	}
	if rep.PerProperty[sensor.PropResilience] != 0.6 {
		t.Fatalf("per-property %v", rep.PerProperty)
	}
}

func TestTrustScoreRenormalizesMissingProperties(t *testing.T) {
	readings := []sensor.Reading{
		{Sensor: "acc", Property: sensor.PropPerformance, Value: 0.5},
	}
	rep, err := Trust(readings, DefaultTrustWeights())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Score-0.5) > 1e-12 {
		t.Fatalf("score %v, want 0.5 after renormalization", rep.Score)
	}
}

func TestTrustScoreValidation(t *testing.T) {
	if _, err := Trust(nil, nil); err == nil {
		t.Fatal("expected empty error")
	}
	bad := []sensor.Reading{{Sensor: "x", Property: sensor.PropPerformance, Value: 3}}
	if _, err := Trust(bad, nil); err == nil {
		t.Fatal("expected out-of-range error")
	}
	noWeight := []sensor.Reading{{Sensor: "x", Property: sensor.PropPrivacy, Value: 0.5}}
	if _, err := Trust(noWeight, TrustWeights{sensor.PropPerformance: 1}); err == nil {
		t.Fatal("expected no-weighted-property error")
	}
}

func sepTable(n int) *dataset.Table {
	rng := rand.New(rand.NewSource(1))
	tb := dataset.New("sep", []string{"f0", "f1"}, []string{"a", "b"})
	for i := 0; i < n; i++ {
		y := i % 2
		_ = tb.Append([]float64{float64(y)*4 - 2 + rng.NormFloat64()*0.4, rng.NormFloat64()}, y)
	}
	return tb
}

// TestSystemEndToEnd deploys the full stack on loopback, trains a model
// through the gateway, requests a SHAP explanation, runs a sensor feeding
// the dashboard, and reads back a trust report.
func TestSystemEndToEnd(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	sys := NewSystem(Options{HealthInterval: 50 * time.Millisecond})
	gwURL, dashURL, err := sys.DeployLocal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sys.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	if gwURL == "" || dashURL == "" {
		t.Fatal("missing URLs")
	}

	mlc := sys.ServiceClient("/ml", "")
	if err := mlc.WaitHealthy(ctx, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	tb := sepTable(200)
	trainResp, err := mlc.Train(ctx, service.TrainRequest{Algorithm: "lr", Train: service.FromTable(tb), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if trainResp.Metrics.Accuracy < 0.9 {
		t.Fatalf("gateway-trained model accuracy %.3f", trainResp.Metrics.Accuracy)
	}

	model, err := mlc.FetchModel(ctx, trainResp.ModelID)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ml.MarshalModel(model)
	if err != nil {
		t.Fatal(err)
	}
	shapc := sys.ServiceClient("/shap", "")
	attr, err := shapc.SHAP(ctx, service.SHAPRequest{
		Model:      blob,
		Instance:   tb.X[0],
		Class:      tb.Y[0],
		Background: tb.X[1:4],
		Samples:    100,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(attr) != 2 {
		t.Fatalf("attribution %v", attr)
	}

	// Register a performance sensor that measures the deployed model
	// through the gateway and publishes into the dashboard store.
	acc := trainResp.Metrics.Accuracy
	err = sys.Sensors.Register(&sensor.Sensor{
		Name:     "uc-accuracy",
		Property: sensor.PropPerformance,
		Interval: 20 * time.Millisecond,
		Collector: sensor.CollectorFunc(func(context.Context) (float64, map[string]float64, error) {
			return acc, nil, nil
		}),
		Min: sensor.Float64Ptr(0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Sensors.Start(ctx); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := sys.Sensors.Last("uc-accuracy"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sensor never collected")
		}
		time.Sleep(10 * time.Millisecond)
	}
	rep, err := sys.TrustReport(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Score < 0.5 {
		t.Fatalf("trust score %v", rep.Score)
	}

	// The dashboard received readings via the store sink.
	store := sys.Dashboard.Store()
	if len(store.Series("uc-accuracy", 0)) == 0 {
		t.Fatal("dashboard store empty")
	}
}

func TestDeployLocalIdempotent(t *testing.T) {
	ctx := context.Background()
	sys := NewSystem(Options{})
	a1, d1, err := sys.DeployLocal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown(ctx)
	a2, d2, err := sys.DeployLocal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 || d1 != d2 {
		t.Fatal("second DeployLocal changed URLs")
	}
}

func TestSystemGatewayAuth(t *testing.T) {
	ctx := context.Background()
	sys := NewSystem(Options{APIKeys: []string{"k1"}})
	_, _, err := sys.DeployLocal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown(ctx)

	noKey := sys.ServiceClient("/ml", "")
	if _, err := noKey.Healthz(ctx); err == nil {
		t.Fatal("unauthenticated request admitted")
	}
	withKey := sys.ServiceClient("/ml", "k1")
	if _, err := withKey.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
}
