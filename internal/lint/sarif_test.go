package lint

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestWriteSARIFShape pins the SARIF 2.1.0 contract: schema and version
// markers, one rule per analyzer, results referencing rules by id and
// index, severity mapped onto the SARIF level vocabulary, and waived
// findings carried as suppression records rather than dropped.
func TestWriteSARIFShape(t *testing.T) {
	res := &Result{Findings: []Finding{
		{Check: "lock-order", Severity: SeverityError, File: "internal/serving/serving.go", Line: 42, Col: 3, Message: "deadlock"},
		{Check: "lint-directive", Severity: SeverityWarn, File: "internal/ml/mlp.go", Line: 7, Message: "stale directive"},
		{Check: "telemetry-cardinality", Severity: SeverityError, File: "internal/gateway/gateway.go", Line: 9, Col: 2, Message: "unbounded label", Suppressed: true, SuppressReason: "bounded route set"},
	}}
	var buf bytes.Buffer
	if err := res.WriteSARIF(&buf); err != nil {
		t.Fatal(err)
	}

	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
						DefaultConfiguration struct {
							Level string `json:"level"`
						} `json:"defaultConfiguration"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
				Suppressions []struct {
					Kind          string `json:"kind"`
					Justification string `json:"justification"`
				} `json:"suppressions"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}

	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if log.Schema == "" {
		t.Error("$schema missing")
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "spatial-lint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) < len(Analyzers()) {
		t.Errorf("rules = %d, want at least one per analyzer (%d)", len(run.Tool.Driver.Rules), len(Analyzers()))
	}
	for _, r := range run.Tool.Driver.Rules {
		if r.ID == "" || r.ShortDescription.Text == "" || r.DefaultConfiguration.Level == "" {
			t.Errorf("incomplete rule: %+v", r)
		}
	}
	if len(run.Results) != 3 {
		t.Fatalf("results = %d, want 3 (suppressed findings stay, with suppression records)", len(run.Results))
	}
	for _, r := range run.Results {
		if r.RuleIndex < 0 || r.RuleIndex >= len(run.Tool.Driver.Rules) {
			t.Fatalf("ruleIndex %d out of range", r.RuleIndex)
		}
		if run.Tool.Driver.Rules[r.RuleIndex].ID != r.RuleID {
			t.Errorf("ruleIndex %d points at %q, not %q", r.RuleIndex, run.Tool.Driver.Rules[r.RuleIndex].ID, r.RuleID)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result has %d locations, want 1", len(r.Locations))
		}
	}

	first := run.Results[0]
	if first.Level != "error" || first.Locations[0].PhysicalLocation.Region.StartLine != 42 || first.Locations[0].PhysicalLocation.Region.StartColumn != 3 {
		t.Errorf("error finding rendered wrong: %+v", first)
	}
	if first.Locations[0].PhysicalLocation.ArtifactLocation.URI != "internal/serving/serving.go" {
		t.Errorf("uri = %q", first.Locations[0].PhysicalLocation.ArtifactLocation.URI)
	}

	warn := run.Results[1]
	if warn.Level != "warning" {
		t.Errorf("warn severity mapped to %q, want warning", warn.Level)
	}
	if warn.Locations[0].PhysicalLocation.Region.StartColumn != 1 {
		t.Errorf("zero column not clamped to 1: %+v", warn.Locations[0].PhysicalLocation.Region)
	}
	if len(warn.Suppressions) != 0 {
		t.Errorf("unwaived finding carries suppressions: %+v", warn.Suppressions)
	}

	waived := run.Results[2]
	if len(waived.Suppressions) != 1 || waived.Suppressions[0].Kind != "inSource" || waived.Suppressions[0].Justification != "bounded route set" {
		t.Errorf("suppressed finding suppressions: %+v", waived.Suppressions)
	}
}
