package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"uc1-fall-poison", "uc2-net-fgsm", "flash-crowd-poison"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("listing misses %q:\n%s", want, out.String())
		}
	}
}

func TestRunWritesScorecard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "card.json")
	var out bytes.Buffer
	if err := run([]string{"-run", "capacity-ramp", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var card struct {
		Scenario string `json:"scenario"`
		Verdict  string `json:"verdict"`
		Requests int    `json:"requests"`
	}
	if err := json.Unmarshal(buf, &card); err != nil {
		t.Fatalf("scorecard is not JSON: %v", err)
	}
	if card.Scenario != "capacity-ramp" || card.Verdict == "" || card.Requests == 0 {
		t.Fatalf("scorecard content: %+v", card)
	}
}

func TestRunArgErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("no action accepted")
	}
	if err := run([]string{"-run", "no-such-campaign"}, &out); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if err := run([]string{"-load", filepath.Join(t.TempDir(), "missing.json")}, &out); err == nil {
		t.Fatal("missing -load file accepted")
	}
}
