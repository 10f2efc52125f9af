// Package core is SPATIAL's façade: it assembles the metric
// micro-services, the API gateway, the AI dashboard, and the AI sensors
// into one deployable system, encodes the paper's attack and vulnerability
// taxonomies (Figs. 1 and 3), and aggregates sensor readings into a trust
// report.
package core

import (
	"fmt"

	"repro/internal/pipeline"
)

// AttackClass groups attacks by mechanism, following Fig. 1.
type AttackClass string

// Attack classes from the paper's perturbation taxonomy.
const (
	ClassPoisoning           AttackClass = "poisoning"
	ClassEvasion             AttackClass = "evasion"
	ClassModelStealing       AttackClass = "model-stealing"
	ClassMembershipInference AttackClass = "membership-inference"
	ClassModelInversion      AttackClass = "model-inversion"
	ClassPropertyInference   AttackClass = "property-inference"
)

// CIA is the security attribute an attack or vulnerability compromises.
type CIA string

// CIA attributes.
const (
	Confidentiality CIA = "confidentiality"
	Integrity       CIA = "integrity"
	Availability    CIA = "availability"
)

// Attack is one entry of the Fig. 1 taxonomy: an attack technique, the
// algorithm families it has been demonstrated against, the pipeline stage
// it targets, and the CIA attributes it compromises.
type Attack struct {
	Name       string         `json:"name"`
	Class      AttackClass    `json:"class"`
	Algorithms []string       `json:"algorithms"` // ml.NewByName identifiers
	Stage      pipeline.Stage `json:"stage"`
	CIA        []CIA          `json:"cia"`
	WhiteBox   bool           `json:"whiteBox"`
}

// attackRegistry encodes Fig. 1 (attack ↔ algorithm pairings surveyed in
// §II) restricted to the algorithm families this repository implements.
var attackRegistry = []Attack{
	{
		Name: "random label flipping", Class: ClassPoisoning,
		Algorithms: []string{"lr", "dt", "rf", "mlp", "dnn", "lgbm", "xgb"},
		Stage:      pipeline.StageCollect, CIA: []CIA{Integrity},
	},
	{
		Name: "targeted label flipping", Class: ClassPoisoning,
		Algorithms: []string{"lr", "dt", "rf", "mlp", "dnn", "lgbm", "xgb"},
		Stage:      pipeline.StageCollect, CIA: []CIA{Integrity},
	},
	{
		Name: "random label swapping", Class: ClassPoisoning,
		Algorithms: []string{"lr", "dt", "rf", "mlp", "dnn", "lgbm", "xgb"},
		Stage:      pipeline.StageCollect, CIA: []CIA{Integrity},
	},
	{
		Name: "GAN-based synthetic poisoning", Class: ClassPoisoning,
		Algorithms: []string{"mlp", "dnn", "lgbm", "xgb"},
		Stage:      pipeline.StageCollect, CIA: []CIA{Integrity},
	},
	{
		Name: "clean-label poisoning", Class: ClassPoisoning,
		Algorithms: []string{"dnn", "mlp"},
		Stage:      pipeline.StageCollect, CIA: []CIA{Integrity},
	},
	{
		Name: "backdoor trigger injection", Class: ClassPoisoning,
		Algorithms: []string{"dnn", "mlp"},
		Stage:      pipeline.StageTrain, CIA: []CIA{Integrity},
	},
	{
		Name: "FGSM", Class: ClassEvasion,
		Algorithms: []string{"lr", "mlp", "dnn"},
		Stage:      pipeline.StageDeploy, CIA: []CIA{Integrity}, WhiteBox: true,
	},
	{
		Name: "transfer FGSM", Class: ClassEvasion,
		Algorithms: []string{"dt", "rf", "lgbm", "xgb"},
		Stage:      pipeline.StageDeploy, CIA: []CIA{Integrity},
	},
	{
		Name: "tree-ensemble evasion", Class: ClassEvasion,
		Algorithms: []string{"dt", "rf", "lgbm", "xgb"},
		Stage:      pipeline.StageDeploy, CIA: []CIA{Integrity}, WhiteBox: true,
	},
	{
		Name: "sponge examples (energy-latency)", Class: ClassEvasion,
		Algorithms: []string{"dnn", "mlp"},
		Stage:      pipeline.StageDeploy, CIA: []CIA{Availability},
	},
	{
		Name: "prediction-API model stealing", Class: ClassModelStealing,
		Algorithms: []string{"lr", "dt", "rf", "mlp", "dnn", "lgbm", "xgb"},
		Stage:      pipeline.StageDeploy, CIA: []CIA{Confidentiality},
	},
	{
		Name: "membership inference", Class: ClassMembershipInference,
		Algorithms: []string{"lr", "dt", "rf", "mlp", "dnn", "lgbm", "xgb"},
		Stage:      pipeline.StageDeploy, CIA: []CIA{Confidentiality},
	},
	{
		Name: "generative model inversion", Class: ClassModelInversion,
		Algorithms: []string{"dnn", "mlp"},
		Stage:      pipeline.StageDeploy, CIA: []CIA{Confidentiality},
	},
	{
		Name: "property inference", Class: ClassPropertyInference,
		Algorithms: []string{"dnn", "mlp"},
		Stage:      pipeline.StageDeploy, CIA: []CIA{Confidentiality},
	},
}

// Attacks returns the full Fig. 1 taxonomy.
func Attacks() []Attack {
	out := make([]Attack, len(attackRegistry))
	copy(out, attackRegistry)
	return out
}

// Vulnerability is one entry of the Fig. 3 taxonomy: a machine-learning
// system weakness, the pipeline stage where it lives, and the CIA
// attribute whose compromise it enables.
type Vulnerability struct {
	Name        string         `json:"name"`
	Stage       pipeline.Stage `json:"stage"`
	CIA         CIA            `json:"cia"`
	Description string         `json:"description"`
}

// vulnerabilityRegistry encodes Fig. 3.
var vulnerabilityRegistry = []Vulnerability{
	{"unvalidated data sources", pipeline.StageCollect, Integrity, "training data accepted from untrusted contributors enables poisoning"},
	{"sensitive attributes in raw data", pipeline.StageCollect, Confidentiality, "personal data entering the pipeline can be reconstructed from the model"},
	{"label-noise blindness", pipeline.StageLabel, Integrity, "no audit of annotation quality lets flipped labels pass unnoticed"},
	{"annotator exposure", pipeline.StageLabel, Confidentiality, "human annotators observe raw sensitive records"},
	{"unaudited training procedure", pipeline.StageTrain, Integrity, "backdoors can be embedded without changing headline accuracy"},
	{"resource-unbounded training", pipeline.StageTrain, Availability, "adversarial data inflates training cost until jobs fail"},
	{"optimistic evaluation", pipeline.StageEvaluate, Integrity, "clean test sets overstate robustness under distribution shift or attack"},
	{"unprotected prediction API", pipeline.StageDeploy, Confidentiality, "query access leaks decision boundaries (stealing, membership inference)"},
	{"gradient exposure", pipeline.StageDeploy, Integrity, "white-box access enables FGSM-style evasion"},
	{"latency-sensitive serving", pipeline.StageDeploy, Availability, "sponge inputs exhaust inference budgets"},
	{"stale monitoring baselines", pipeline.StageMonitor, Integrity, "drift or slow poisoning goes undetected when baselines never refresh"},
}

// Vulnerabilities returns the Fig. 3 taxonomy.
func Vulnerabilities() []Vulnerability {
	out := make([]Vulnerability, len(vulnerabilityRegistry))
	copy(out, vulnerabilityRegistry)
	return out
}

// VulnerabilitiesAtStage filters the taxonomy by pipeline stage.
func VulnerabilitiesAtStage(stage pipeline.Stage) []Vulnerability {
	var out []Vulnerability
	for _, v := range vulnerabilityRegistry {
		if v.Stage == stage {
			out = append(out, v)
		}
	}
	return out
}

// ValidateTaxonomy checks internal consistency: every attack references
// known algorithms and a non-empty CIA set, and every pipeline stage with
// an attack also has a documented vulnerability. It runs in tests to keep
// the registries honest as they grow.
func ValidateTaxonomy() error {
	known := map[string]bool{"lr": true, "dt": true, "rf": true, "mlp": true, "dnn": true, "lgbm": true, "xgb": true, "nn": true}
	stagesWithVuln := map[pipeline.Stage]bool{}
	for _, v := range vulnerabilityRegistry {
		stagesWithVuln[v.Stage] = true
	}
	for _, a := range attackRegistry {
		if a.Name == "" || a.Class == "" {
			return fmt.Errorf("taxonomy: attack with empty name/class: %+v", a)
		}
		if len(a.Algorithms) == 0 || len(a.CIA) == 0 {
			return fmt.Errorf("taxonomy: attack %q missing algorithms or CIA", a.Name)
		}
		for _, algo := range a.Algorithms {
			if !known[algo] {
				return fmt.Errorf("taxonomy: attack %q references unknown algorithm %q", a.Name, algo)
			}
		}
		if !stagesWithVuln[a.Stage] {
			return fmt.Errorf("taxonomy: attack %q targets stage %q with no documented vulnerability", a.Name, a.Stage)
		}
	}
	return nil
}
