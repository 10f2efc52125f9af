package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/sensor"

	"repro/internal/clock"
)

// Requirements is the certification scale the paper's §VIII calls for:
// the minimum acceptable score per trustworthy property for a given
// application class. Being explicit per application sidesteps the
// "agnostic trust score" problem the paper describes — a medical fall
// detector and a traffic classifier certify against different bars.
type Requirements map[sensor.Property]float64

// DefaultRequirements is a moderate certification bar used by the
// examples.
func DefaultRequirements() Requirements {
	return Requirements{
		sensor.PropPerformance:    0.85,
		sensor.PropResilience:     0.5,
		sensor.PropExplainability: 0.2,
	}
}

// Failure records one unmet requirement.
type Failure struct {
	Property sensor.Property `json:"property"`
	Required float64         `json:"required"`
	Measured float64         `json:"measured"`
	// Missing means no sensor measured the property at all — always a
	// failure when the property is required.
	Missing bool `json:"missing"`
}

// Certificate is the audit-ready output of a certification pass.
type Certificate struct {
	Issued       time.Time                   `json:"issued"`
	Score        float64                     `json:"score"`
	PerProperty  map[sensor.Property]float64 `json:"perProperty"`
	Requirements Requirements                `json:"requirements"`
	Alerts       int                         `json:"alerts"`
	Passed       bool                        `json:"passed"`
	Failures     []Failure                   `json:"failures,omitempty"`
	// Hash covers every field above; appending it to the audit log
	// pins the certificate content.
	Hash string `json:"hash"`
}

// Certify checks a trust report against per-property requirements and
// issues a hashable certificate. Active alerts fail certification
// regardless of scores: an operator must not certify a system that is
// currently alerting.
func Certify(rep TrustReport, req Requirements) (Certificate, error) {
	if len(req) == 0 {
		return Certificate{}, fmt.Errorf("core: empty requirements")
	}
	for prop, min := range req {
		if min < 0 || min > 1 {
			return Certificate{}, fmt.Errorf("core: requirement for %s is %v, outside [0,1]", prop, min)
		}
	}
	cert := Certificate{
		Issued:       clock.Real().Now().UTC(),
		Score:        rep.Score,
		PerProperty:  rep.PerProperty,
		Requirements: req,
		Alerts:       rep.Alerts,
		Passed:       true,
	}
	props := make([]sensor.Property, 0, len(req))
	for prop := range req {
		props = append(props, prop)
	}
	sort.Slice(props, func(i, j int) bool { return props[i] < props[j] })
	for _, prop := range props {
		min := req[prop]
		measured, ok := rep.PerProperty[prop]
		switch {
		case !ok:
			cert.Passed = false
			cert.Failures = append(cert.Failures, Failure{Property: prop, Required: min, Missing: true})
		case measured < min:
			cert.Passed = false
			cert.Failures = append(cert.Failures, Failure{Property: prop, Required: min, Measured: measured})
		}
	}
	if rep.Alerts > 0 {
		cert.Passed = false
	}
	hash, err := certHash(cert)
	if err != nil {
		return Certificate{}, err
	}
	cert.Hash = hash
	return cert, nil
}

// certHash hashes the certificate's canonical JSON (with Hash empty).
func certHash(c Certificate) (string, error) {
	c.Hash = ""
	raw, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("core: hash certificate: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}
