package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serving"
	"repro/internal/wire"
)

// TestHTTPBackendRoundTrip drives the full wire boundary: an HTTP
// replica joins next to an in-process one, replication and 2PC flow
// over the wire, and killing the HTTP server triggers transport-level
// failover.
func TestHTTPBackendRoundTrip(t *testing.T) {
	c := New(Config{
		RPCTimeout: 10 * time.Second,
		// Tiny expiry so one sweep after the server dies is enough to
		// demote it (this test runs on the real clock).
		HeartbeatInterval: time.Millisecond,
		HeartbeatExpiry:   time.Millisecond,
	})

	local := NewReplica("replica-local", serving.Config{MaxBatch: 1})
	defer local.Close()
	if err := c.Join(local); err != nil {
		t.Fatal(err)
	}

	remote := NewReplica("replica-remote", serving.Config{MaxBatch: 1})
	defer remote.Close()
	srv := httptest.NewServer(remote.Handler())
	defer srv.Close()
	if err := c.Join(NewHTTPBackend("replica-remote", srv.URL, srv.Client())); err != nil {
		t.Fatal(err)
	}

	// Register fans out over the wire; both replicas hold both versions.
	if _, err := c.Register("demo", trainedModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("demo", trainedModel(t, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.PromoteAll("demo", 2); err != nil {
		t.Fatal(err)
	}
	aliases, err := remote.Aliases(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(aliases) != 1 || aliases[0].Current != 2 || len(aliases[0].Versions) != 2 {
		t.Fatalf("remote replica after wire replication + promote: %+v", aliases)
	}

	// Predicts route to whichever member owns the shard; both must be
	// reachable, so force the remote by killing the local one and letting
	// a sweep demote it.
	local.Kill()
	time.Sleep(2 * time.Millisecond)
	c.TickHeartbeat()
	if got := c.Status().RingMembers; len(got) != 1 || got[0] != "replica-remote" {
		t.Fatalf("ring %v after killing the local replica, want only the remote", got)
	}
	probs, classes, err := c.Predict(context.Background(), "demo", testInstances)
	if err != nil {
		t.Fatalf("predict via HTTP backend: %v", err)
	}
	if len(probs) != 2 || len(classes) != 2 {
		t.Fatalf("wire predict shape: %d probs / %d classes", len(probs), len(classes))
	}

	// Typed errors survive the boundary.
	hb := NewHTTPBackend("replica-remote", srv.URL, srv.Client())
	if _, _, err := hb.Predict(context.Background(), "no-such-model", testInstances); !errors.Is(err, serving.ErrNotFound) {
		t.Fatalf("wire not-found mapped to %v, want serving.ErrNotFound", err)
	}
	remote.Kill()
	if _, err := hb.Heartbeat(context.Background()); !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("killed replica behind live server mapped to %v, want ErrReplicaDown", err)
	}
	remote.Restart()

	// Transport failure (server gone) also maps to ErrReplicaDown, and
	// the router fails over to the surviving member: the local replica,
	// restarted empty and resynced by the next sweep.
	local.Restart()
	c.TickHeartbeat()
	if got := c.Status().RingMembers; len(got) != 2 {
		t.Fatalf("ring %v after restarting the local replica, want both", got)
	}
	srv.Close()
	if _, err := hb.Heartbeat(context.Background()); !errors.Is(err, ErrReplicaDown) {
		t.Fatalf("dead transport mapped to %v, want ErrReplicaDown", err)
	}
	if _, _, err := c.Predict(context.Background(), "demo", testInstances); err != nil {
		t.Fatalf("predict after HTTP replica vanished: %v", err)
	}
	// The sweep demotes a member that fails its heartbeat once its last
	// beat is older than the expiry; on the real clock the last one may
	// be younger than a millisecond here, so let the expiry run out.
	time.Sleep(2 * time.Millisecond)
	c.TickHeartbeat() // sweep notices the dead transport and demotes it
	st := c.Status()
	for _, r := range st.Replicas {
		if r.ID == "replica-remote" && r.Up {
			t.Fatalf("vanished HTTP replica still up in status: %+v", r)
		}
	}
}

// TestHTTPBackendOverloadedRoundTrip reconstructs both admission answers
// across the wire: a shed with its Retry-After hint, and the final
// refusal of a request larger than the line could ever admit.
func TestHTTPBackendOverloadedRoundTrip(t *testing.T) {
	rp := NewReplica("replica-shed", serving.Config{
		MaxBatch:      1,
		QueueDepth:    4,
		ShedWatermark: 1,
		RetryAfter:    750 * time.Millisecond,
	})
	defer rp.Close()
	reg := rp.Runtime().Registry()
	if _, err := reg.Register("demo", trainedModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rp.Handler())
	defer srv.Close()
	hb := NewHTTPBackend("replica-shed", srv.URL, srv.Client())

	// Two instances against a watermark of one: refused for good.
	_, _, err := hb.Predict(context.Background(), "demo", testInstances)
	var over *serving.OverloadedError
	if !errors.Is(err, serving.ErrTooManyInstances) || errors.As(err, &over) {
		t.Fatalf("oversized request mapped to %v, want serving.ErrTooManyInstances", err)
	}

	// One instance at a time from eight callers: the line holds one, so
	// before long a caller finds it taken and is shed.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shed := make(chan error, 8)
	var wg sync.WaitGroup
	for i := 0; i < cap(shed); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if _, _, err := hb.Predict(ctx, "demo", testInstances[:1]); err != nil {
					shed <- err
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(shed) == 0 {
		t.Fatal("eight concurrent callers were all served for 30 s")
	}
	if err := <-shed; !errors.As(err, &over) {
		t.Fatalf("wire shed mapped to %v, want *serving.OverloadedError", err)
	}
	if over.RetryAfter != 750*time.Millisecond {
		t.Fatalf("Retry-After hint %v survived as %v", 750*time.Millisecond, over.RetryAfter)
	}
	if over.Ref != "demo" {
		t.Fatalf("reconstructed overload ref %q, want demo", over.Ref)
	}
}

// TestReplicaPushRefusesOversizedBlob: a push whose declared body is over
// the wire limit is answered 413 before a byte of the blob is buffered.
func TestReplicaPushRefusesOversizedBlob(t *testing.T) {
	rp := NewReplica("replica-big", serving.Config{MaxBatch: 1})
	defer rp.Close()
	body := &readCounter{r: strings.NewReader(`{"name":"demo","algo":"lr","blob":"`)}
	req := httptest.NewRequest("POST", "/replica/push", body)
	req.ContentLength = wire.MaxBodyBytes + 1
	rec := httptest.NewRecorder()
	rp.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized push: status %d (%s), want 413", rec.Code, rec.Body)
	}
	if body.n != 0 {
		t.Fatalf("oversized push: %d bytes of the blob were read before refusing", body.n)
	}
	if rp.Runtime().Registry().Len() != 0 {
		t.Fatal("oversized push registered a model")
	}
}

type readCounter struct {
	r io.Reader
	n int
}

func (c *readCounter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}
