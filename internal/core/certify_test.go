package core

import (
	"testing"

	"repro/internal/sensor"
)

func passingReport() TrustReport {
	return TrustReport{
		Score: 0.9,
		PerProperty: map[sensor.Property]float64{
			sensor.PropPerformance:    0.95,
			sensor.PropResilience:     0.7,
			sensor.PropExplainability: 0.4,
		},
	}
}

func TestCertifyPasses(t *testing.T) {
	cert, err := Certify(passingReport(), DefaultRequirements())
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Passed || len(cert.Failures) != 0 {
		t.Fatalf("certificate should pass: %+v", cert)
	}
	if cert.Hash == "" {
		t.Fatal("missing hash")
	}
	if want, err := certHash(cert); err != nil || want != cert.Hash {
		t.Fatalf("hash %q is not the content hash %q (%v)", cert.Hash, want, err)
	}
}

func TestCertifyFailsBelowRequirement(t *testing.T) {
	rep := passingReport()
	rep.PerProperty[sensor.PropPerformance] = 0.5
	cert, err := Certify(rep, DefaultRequirements())
	if err != nil {
		t.Fatal(err)
	}
	if cert.Passed {
		t.Fatal("certificate should fail")
	}
	if len(cert.Failures) != 1 || cert.Failures[0].Property != sensor.PropPerformance || cert.Failures[0].Missing {
		t.Fatalf("failures %+v", cert.Failures)
	}
}

func TestCertifyFailsOnMissingProperty(t *testing.T) {
	rep := passingReport()
	delete(rep.PerProperty, sensor.PropResilience)
	cert, err := Certify(rep, DefaultRequirements())
	if err != nil {
		t.Fatal(err)
	}
	if cert.Passed {
		t.Fatal("missing required property should fail certification")
	}
	found := false
	for _, f := range cert.Failures {
		if f.Property == sensor.PropResilience && f.Missing {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing-property failure absent: %+v", cert.Failures)
	}
}

func TestCertifyFailsOnActiveAlerts(t *testing.T) {
	rep := passingReport()
	rep.Alerts = 2
	cert, err := Certify(rep, DefaultRequirements())
	if err != nil {
		t.Fatal(err)
	}
	if cert.Passed {
		t.Fatal("active alerts must block certification")
	}
}

func TestCertifyValidation(t *testing.T) {
	if _, err := Certify(passingReport(), nil); err == nil {
		t.Fatal("expected empty-requirements error")
	}
	if _, err := Certify(passingReport(), Requirements{sensor.PropPerformance: 2}); err == nil {
		t.Fatal("expected out-of-range requirement error")
	}
}
