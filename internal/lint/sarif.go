package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
	"sort"
)

// This file renders a Result as SARIF 2.1.0 (the Static Analysis
// Results Interchange Format), the exchange shape CI systems and code
// hosts ingest for inline annotation. One run per log, one rule per
// analyzer, one result per finding. Suppressed findings are emitted
// with a suppression record instead of being dropped, so the dashboard
// side can audit waivers; gating stays the driver's job.

const (
	sarifSchema  = "https://json.schemastore.org/sarif-2.1.0.json"
	sarifVersion = "2.1.0"
)

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID                   string          `json:"id"`
	ShortDescription     sarifMessage    `json:"shortDescription"`
	DefaultConfiguration sarifRuleConfig `json:"defaultConfiguration"`
}

type sarifRuleConfig struct {
	Level string `json:"level"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID       string             `json:"ruleId"`
	RuleIndex    int                `json:"ruleIndex"`
	Level        string             `json:"level"`
	Message      sarifMessage       `json:"message"`
	Locations    []sarifLocation    `json:"locations"`
	Suppressions []sarifSuppression `json:"suppressions,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

type sarifSuppression struct {
	Kind          string `json:"kind"`
	Justification string `json:"justification,omitempty"`
}

// sarifLevel maps the severity onto SARIF's level vocabulary.
func sarifLevel(s Severity) string {
	if s == SeverityWarn {
		return "warning"
	}
	return "error"
}

// WriteSARIF renders the run as a SARIF 2.1.0 log. Every analyzer of
// the suite appears as a rule (plus any extra check names present in
// the findings, such as lint-directive), so a clean run still documents
// what was checked.
func (r *Result) WriteSARIF(w io.Writer) error {
	rules := make([]sarifRule, 0, len(Analyzers())+1)
	index := make(map[string]int)
	addRule := func(id, doc string, sev Severity) {
		if _, seen := index[id]; seen {
			return
		}
		index[id] = len(rules)
		rules = append(rules, sarifRule{
			ID:                   id,
			ShortDescription:     sarifMessage{Text: doc},
			DefaultConfiguration: sarifRuleConfig{Level: sarifLevel(sev)},
		})
	}
	for _, a := range Analyzers() {
		addRule(a.Name, a.Doc, a.EffectiveSeverity())
	}
	extras := make(map[string]Severity)
	for _, f := range r.Findings {
		if _, known := index[f.Check]; !known {
			extras[f.Check] = f.Severity
		}
	}
	extraNames := make([]string, 0, len(extras))
	for name := range extras {
		extraNames = append(extraNames, name)
	}
	sort.Strings(extraNames)
	for _, name := range extraNames {
		addRule(name, "auxiliary check", extras[name])
	}

	results := make([]sarifResult, 0, len(r.Findings))
	for _, f := range r.Findings {
		col := f.Col
		if col < 1 {
			col = 1
		}
		res := sarifResult{
			RuleID:    f.Check,
			RuleIndex: index[f.Check],
			Level:     sarifLevel(f.Severity),
			Message:   sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       filepath.ToSlash(f.File),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{StartLine: f.Line, StartColumn: col},
				},
			}},
		}
		if f.Suppressed {
			res.Suppressions = append(res.Suppressions, sarifSuppression{
				Kind:          "inSource",
				Justification: f.SuppressReason,
			})
		}
		results = append(results, res)
	}

	log := sarifLog{
		Schema:  sarifSchema,
		Version: sarifVersion,
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:  "spatial-lint",
				Rules: rules,
			}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&log)
}
