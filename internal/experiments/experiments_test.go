package experiments

import (
	"encoding/json"
	"math"
	"testing"
)

// quickCfg runs every experiment at reduced scale.
func quickCfg() Config { return Config{Quick: true, Seed: 1} }

func scoreByModel(scores []ModelScore, model string) (ModelScore, bool) {
	for _, s := range scores {
		if s.Model == model {
			return s, true
		}
	}
	return ModelScore{}, false
}

func TestUC1BaselineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains five models")
	}
	res, err := UC1Baseline(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 5 {
		t.Fatalf("scores %d", len(res.Scores))
	}
	lr, _ := scoreByModel(res.Scores, "lr")
	dnn, _ := scoreByModel(res.Scores, "dnn")
	mlp, _ := scoreByModel(res.Scores, "mlp")
	if dnn.Accuracy < 0.85 || mlp.Accuracy < 0.85 {
		t.Fatalf("nonlinear baselines too low: dnn %.3f mlp %.3f", dnn.Accuracy, mlp.Accuracy)
	}
	// The paper's headline gap: the linear baseline trails clearly.
	if lr.Accuracy > dnn.Accuracy-0.08 {
		t.Fatalf("lr %.3f should trail dnn %.3f", lr.Accuracy, dnn.Accuracy)
	}
}

func TestFig6DegradationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 5 models x 4 rates")
	}
	cfg := quickCfg()
	res, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rates := cfg.poisonRates()
	wantPoints := len(uc1Models) * len(rates)
	if len(res.Points) != wantPoints {
		t.Fatalf("points %d, want %d", len(res.Points), wantPoints)
	}
	// Every model must lose accuracy from 0% to 50% poisoning: at 50%
	// random binary flipping the labels carry almost no signal.
	for _, model := range uc1Models {
		var first, last float64
		for _, p := range res.Points {
			if p.Model != model {
				continue
			}
			if p.Rate == 0 {
				first = p.Accuracy
			}
			if p.Rate == rates[len(rates)-1] {
				last = p.Accuracy
			}
		}
		if last >= first {
			t.Errorf("%s: accuracy did not degrade (%.3f -> %.3f)", model, first, last)
		}
	}
}

func TestFig6SHAPDissimilarityRises(t *testing.T) {
	if testing.Short() {
		t.Skip("trains DNN per rate and explains")
	}
	cfg := quickCfg()
	res, err := Fig6SHAP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(cfg.poisonRates()) {
		t.Fatalf("points %d", len(res.Points))
	}
	first := res.Points[0].Dissimilarity
	last := res.Points[len(res.Points)-1].Dissimilarity
	if last <= first {
		t.Fatalf("dissimilarity did not rise with poisoning: %.4f -> %.4f", first, last)
	}
}

func TestUC2BaselineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three models")
	}
	res, err := UC2Baseline(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 3 {
		t.Fatalf("scores %d", len(res.Scores))
	}
	for _, s := range res.Scores {
		if s.Accuracy < 0.8 {
			t.Errorf("%s baseline %.3f < 0.80", s.Model, s.Accuracy)
		}
	}
}

func TestUC2FGSMShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three models and attacks")
	}
	res, err := UC2FGSM(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 3 {
		t.Fatalf("scores %d", len(res.Scores))
	}
	for _, s := range res.Scores {
		if s.AdvAcc >= s.CleanAcc {
			t.Errorf("%s: FGSM did not degrade (%.3f -> %.3f)", s.Model, s.CleanAcc, s.AdvAcc)
		}
		if s.Impact <= 0 {
			t.Errorf("%s: zero impact", s.Model)
		}
		if s.ComplexityUS <= 0 {
			t.Errorf("%s: zero complexity", s.Model)
		}
	}
	// Complexity is constant across victims (samples crafted once).
	if res.Scores[0].ComplexityUS != res.Scores[1].ComplexityUS || res.Scores[1].ComplexityUS != res.Scores[2].ComplexityUS {
		t.Error("crafting complexity should be identical for every victim")
	}
}

func TestFig7SHAPProtocolFeaturesMatter(t *testing.T) {
	if testing.Short() {
		t.Skip("trains NN and explains")
	}
	res, err := Fig7SHAP(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Benign) != 21 || len(res.Attacked) != 21 {
		t.Fatalf("rank lengths %d/%d", len(res.Benign), len(res.Attacked))
	}
	// The paper's observation: protocol features are top-ranked on
	// benign traffic.
	_, tcpRank := Importance(res.Benign, "proto_tcp")
	_, udpRank := Importance(res.Benign, "proto_udp")
	best := tcpRank
	if udpRank < best {
		best = udpRank
	}
	if best > 5 {
		t.Errorf("no protocol feature in benign top-5 (tcp #%d, udp #%d)", tcpRank, udpRank)
	}
}

func TestFig7PoisoningShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains NN per rate")
	}
	cfg := quickCfg()
	res, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineAccuracy < 0.8 {
		t.Fatalf("baseline %.3f", res.BaselineAccuracy)
	}
	rates := cfg.uc2PoisonRates()
	if len(res.Points) != 2*len(rates) {
		t.Fatalf("points %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Rate == 0 && p.Impact != 0 {
			t.Errorf("%s: nonzero impact at zero rate", p.Attack)
		}
		if p.ComplexityFrac != p.Rate {
			t.Errorf("%s: complexity %v != rate %v", p.Attack, p.ComplexityFrac, p.Rate)
		}
	}
	// The heaviest label-flip should hurt.
	var flipMax float64
	for _, p := range res.Points {
		if p.Attack == "label-flip" && p.Impact > flipMax {
			flipMax = p.Impact
		}
	}
	if flipMax <= 0 {
		t.Error("label flipping never had impact")
	}
	if res.GAN.Impact <= 0.05 {
		t.Errorf("GAN poisoning impact %.3f too small", res.GAN.Impact)
	}
}

func TestFig8bLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys system and generates load")
	}
	res, err := Fig8b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanMs <= 0 {
		t.Fatal("no latency measured")
	}
	if res.ErrorRate != 0 {
		t.Fatalf("error rate %.2f", res.ErrorRate)
	}
	if len(res.OverThreads) == 0 {
		t.Fatal("no over-threads series")
	}
}

func TestFig8cLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys system and generates load")
	}
	res, err := Fig8c(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.SHAP.MeanMs <= 0 || res.LIME.MeanMs <= 0 {
		t.Fatalf("latencies %v %v", res.SHAP.MeanMs, res.LIME.MeanMs)
	}
	if res.SHAP.ErrorRate != 0 || res.LIME.ErrorRate != 0 {
		t.Fatalf("errors %v %v", res.SHAP.ErrorRate, res.LIME.ErrorRate)
	}
}

func TestFig8dLoadGrowsWithConcurrency(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys system and generates load")
	}
	cfg := quickCfg()
	res, err := Fig8d(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(cfg.fig8dConcurrency()) {
		t.Fatalf("points %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.ErrorRate != 0 {
			t.Fatalf("errors at %d users: %.2f", p.Threads, p.ErrorRate)
		}
	}
	// More users on a fixed CPU budget must not make requests faster.
	// The margin is generous: the quick workload is small enough that
	// scheduler noise moves individual means by tens of percent.
	first := res.Points[0]
	last := res.Points[len(res.Points)-1]
	if last.MeanMs < first.MeanMs*0.5 {
		t.Errorf("latency shrank with concurrency: %.1fms @%d -> %.1fms @%d",
			first.MeanMs, first.Threads, last.MeanMs, last.Threads)
	}
}

func TestTaxonomyExperiment(t *testing.T) {
	res, err := Taxonomy(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attacks) == 0 || len(res.Vulnerabilities) == 0 {
		t.Fatal("empty taxonomy")
	}
}

func TestRunDispatcher(t *testing.T) {
	if _, err := Run("nope", quickCfg()); err == nil {
		t.Fatal("expected unknown-experiment error")
	}
	if _, err := Run("taxonomy", quickCfg()); err != nil {
		t.Fatal(err)
	}
	ids := IDs()
	if len(ids) != 14 {
		t.Fatalf("ids %v", ids)
	}
}

func TestExtDefenseRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("trains DNN three times")
	}
	res, err := ExtDefense(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.SanitizedAcc < p.PoisonedAcc {
			t.Errorf("rate %.0f%%: sanitization hurt (%.3f -> %.3f)", p.Rate*100, p.PoisonedAcc, p.SanitizedAcc)
		}
		if p.Relabeled == 0 {
			t.Errorf("rate %.0f%%: nothing repaired", p.Rate*100)
		}
	}
}

func TestExtPrivacyTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("trains DP models")
	}
	res, err := ExtPrivacy(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 2 {
		t.Fatalf("points %d", len(res.Points))
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.Noise <= first.Noise {
		t.Fatal("sweep not ordered")
	}
	// The sweep starts at noise 0, whose epsilon is +Inf.
	if last.Epsilon >= first.Epsilon {
		t.Errorf("epsilon should shrink with noise: %.2f -> %.2f", first.Epsilon, last.Epsilon)
	}
}

// TestExtPrivacyJSON: the noise-0 point spends an infinite budget, and
// -json must still write the run, with that epsilon as null.
func TestExtPrivacyJSON(t *testing.T) {
	res, err := ExtPrivacy(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	first := res.Points[0]
	if first.Noise != 0 || !math.IsInf(first.Epsilon, 1) {
		t.Fatalf("first point: noise %v, epsilon %v; want 0 and +Inf", first.Noise, first.Epsilon)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back struct {
		Points []struct {
			Noise   float64  `json:"noise"`
			Epsilon *float64 `json:"epsilon"`
		} `json:"points"`
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(res.Points) || back.Points[0].Epsilon != nil {
		t.Fatalf("noise-0 epsilon should be null: %s", raw)
	}
	if e := back.Points[1].Epsilon; e == nil || *e != res.Points[1].Epsilon || back.Points[1].Noise != res.Points[1].Noise {
		t.Fatalf("finite point did not round-trip: %s", raw)
	}
}

func TestExtFederatedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("federated rounds")
	}
	res, err := ExtFederated(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) == 0 {
		t.Fatal("no rounds")
	}
	final := res.Rounds[len(res.Rounds)-1].EvalAccuracy
	if final < 0.6 {
		t.Fatalf("honest federation accuracy %.3f", final)
	}
	for _, name := range []string{"fedavg", "trimmed-mean", "median"} {
		if _, ok := res.Poisoned[name]; !ok {
			t.Fatalf("missing aggregator %s", name)
		}
	}
}
