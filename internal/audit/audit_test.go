package audit

import (
	"sync"
	"testing"
	"time"
)

func TestAppendAndVerify(t *testing.T) {
	l := NewLog()
	for i := 0; i < 5; i++ {
		if _, err := l.Append(KindReading, "sensor-a", map[string]float64{"value": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 5 {
		t.Fatalf("len %d", l.Len())
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	recs := l.Records("")
	if recs[0].PrevHash != "" || recs[1].PrevHash != recs[0].Hash {
		t.Fatal("chain links wrong")
	}
}

func TestAppendValidation(t *testing.T) {
	l := NewLog()
	if _, err := l.Append("", "a", nil); err == nil {
		t.Fatal("expected kind error")
	}
	if _, err := l.Append(KindAlert, "", nil); err == nil {
		t.Fatal("expected actor error")
	}
	if _, err := l.Append(KindAlert, "a", func() {}); err == nil {
		t.Fatal("expected marshal error")
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	l := NewLog()
	for i := 0; i < 4; i++ {
		if _, err := l.Append(KindAction, "operator", map[string]int{"step": i}); err != nil {
			t.Fatal(err)
		}
	}
	// Tamper with a payload in place.
	l.records[1].Payload = []byte(`{"step":99}`)
	if err := l.Verify(); err == nil {
		t.Fatal("payload tampering undetected")
	}

	// Rebuild, then tamper with a hash to re-link the chain: the
	// successor's PrevHash no longer matches.
	l2 := NewLog()
	for i := 0; i < 3; i++ {
		if _, err := l2.Append(KindAction, "operator", i); err != nil {
			t.Fatal(err)
		}
	}
	l2.records[0].Hash = hashBody(l2.records[0]) // unchanged: still fine
	if err := l2.Verify(); err != nil {
		t.Fatal(err)
	}
	l2.records[0].Payload = []byte(`7`)
	l2.records[0].Hash = hashBody(l2.records[0]) // rehash after tamper
	if err := l2.Verify(); err == nil {
		t.Fatal("re-hashed tampering should break the successor link")
	}
}

func TestRecordsFilter(t *testing.T) {
	l := NewLog()
	_, _ = l.Append(KindReading, "s", 1)
	_, _ = l.Append(KindAlert, "s", 2)
	_, _ = l.Append(KindReading, "s", 3)
	if got := len(l.Records(KindReading)); got != 2 {
		t.Fatalf("filtered %d", got)
	}
	if got := len(l.Records(KindDeploy)); got != 0 {
		t.Fatalf("filtered %d", got)
	}
}

func TestConcurrentAppendsKeepChainConsistent(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := l.Append(KindReading, "sensor", g*100+i); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if l.Len() != 400 {
		t.Fatalf("len %d", l.Len())
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicHashGivenFixedClock(t *testing.T) {
	mk := func() *Log {
		l := NewLog()
		l.now = func() time.Time { return time.Unix(1700000000, 0) }
		_, _ = l.Append(KindReading, "s", 42)
		return l
	}
	a, b := mk(), mk()
	if a.Records("")[0].Hash != b.Records("")[0].Hash {
		t.Fatal("hash not deterministic for identical content")
	}
}
