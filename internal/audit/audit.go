// Package audit implements the accountability substrate the paper's AI
// dashboard exists to serve: "it facilitates the verification of AI
// systems for potential audits and ensures compliance with accountability
// regulations set by regulatory bodies" (§I). The log is an append-only,
// hash-chained record of trust-relevant events (sensor readings, alerts,
// operator actions, model deployments); any later tampering with a stored
// record breaks the chain and is detected by Verify.
package audit

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// Kind classifies an audit record.
type Kind string

// Audit record kinds.
const (
	KindReading  Kind = "reading"  // a sensor measurement
	KindAlert    Kind = "alert"    // a threshold violation
	KindAction   Kind = "action"   // an operator's corrective action
	KindDeploy   Kind = "deploy"   // a model (re)deployment
	KindDecision Kind = "decision" // an individual AI decision under audit
)

// Record is one immutable audit entry.
type Record struct {
	// Seq is the 1-based position in the chain.
	Seq int `json:"seq"`
	// Time is the append timestamp.
	Time time.Time `json:"time"`
	// Kind classifies the event; Actor identifies the producing
	// component (sensor name, operator id, service).
	Kind  Kind   `json:"kind"`
	Actor string `json:"actor"`
	// Payload is the event body (JSON).
	Payload json.RawMessage `json:"payload"`
	// PrevHash chains to the previous record; Hash covers this record.
	PrevHash string `json:"prevHash"`
	Hash     string `json:"hash"`
}

// hashBody computes the record hash over every field except Hash itself.
func hashBody(r Record) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%d|%s|%s|%s|", r.Seq, r.Time.UnixNano(), r.Kind, r.Actor, r.PrevHash)
	h.Write(r.Payload)
	return hex.EncodeToString(h.Sum(nil))
}

// Log is an append-only hash-chained audit log. The zero value is not
// usable; construct with NewLog.
type Log struct {
	mu      sync.Mutex
	records []Record
	now     func() time.Time
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{now: time.Now} }

// Append adds an event. payload may be any JSON-marshalable value.
func (l *Log) Append(kind Kind, actor string, payload any) (Record, error) {
	if kind == "" {
		return Record{}, fmt.Errorf("audit: empty kind")
	}
	if actor == "" {
		return Record{}, fmt.Errorf("audit: empty actor")
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return Record{}, fmt.Errorf("audit: marshal payload: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := Record{
		Seq:     len(l.records) + 1,
		Time:    l.now(),
		Kind:    kind,
		Actor:   actor,
		Payload: raw,
	}
	if len(l.records) > 0 {
		rec.PrevHash = l.records[len(l.records)-1].Hash
	}
	rec.Hash = hashBody(rec)
	l.records = append(l.records, rec)
	return rec, nil
}

// Len returns the number of records.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// Records returns a copy of the chain (optionally filtered by kind; ""
// returns everything).
func (l *Log) Records(kind Kind) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, 0, len(l.records))
	for _, r := range l.records {
		if kind == "" || r.Kind == kind {
			out = append(out, r)
		}
	}
	return out
}

// Verify walks the chain and returns the first inconsistency found:
// a broken hash, a broken link, or a sequence gap. A nil error means the
// log is internally consistent.
func (l *Log) Verify() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	prevHash := ""
	for i, r := range l.records {
		if r.Seq != i+1 {
			return fmt.Errorf("audit: record %d has seq %d", i+1, r.Seq)
		}
		if r.PrevHash != prevHash {
			return fmt.Errorf("audit: record %d chain link broken", r.Seq)
		}
		if hashBody(r) != r.Hash {
			return fmt.Errorf("audit: record %d content hash mismatch (tampered?)", r.Seq)
		}
		prevHash = r.Hash
	}
	return nil
}
