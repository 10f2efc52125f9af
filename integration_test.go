package repro

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/dashboard"
	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/sensor"
	"repro/internal/service"
)

// freePort asks the kernel for an unused loopback port.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startCmd launches a built binary and registers cleanup.
func startCmd(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			_, _ = cmd.Process.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = cmd.Process.Kill()
		}
	})
	return cmd
}

// TestMultiProcessDeployment builds the real CLI binaries, runs the
// services, gateway and dashboard as separate processes (the paper's
// one-machine-per-component deployment, shrunk onto loopback), and drives
// a full train → explain → monitor loop through them.
func TestMultiProcessDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	binDir := t.TempDir()
	for _, tool := range []string{"spatial-services", "spatial-gateway", "spatial-dashboard"} {
		out := filepath.Join(binDir, tool)
		build := exec.Command("go", "build", "-o", out, "./cmd/"+tool)
		build.Stdout = os.Stderr
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			t.Fatalf("build %s: %v", tool, err)
		}
	}

	mlAddr := freePort(t)
	shapAddr := freePort(t)
	gwAddr := freePort(t)
	dashAddr := freePort(t)

	startCmd(t, filepath.Join(binDir, "spatial-services"),
		"-ml", mlAddr, "-shap", shapAddr,
		"-lime", "", "-occlusion", "", "-resilience", "", "-fairness", "", "-privacy", "", "-drift", "")
	startCmd(t, filepath.Join(binDir, "spatial-gateway"),
		"-addr", gwAddr,
		"-route", "/ml=http://"+mlAddr,
		"-route", "/shap=http://"+shapAddr)
	startCmd(t, filepath.Join(binDir, "spatial-dashboard"), "-addr", dashAddr)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	mlc := &service.Client{BaseURL: "http://" + gwAddr + "/ml"}
	if err := mlc.WaitHealthy(ctx, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	shapc := &service.Client{BaseURL: "http://" + gwAddr + "/shap"}
	if err := shapc.WaitHealthy(ctx, 20*time.Second); err != nil {
		t.Fatal(err)
	}

	// Train through the gateway.
	rng := rand.New(rand.NewSource(1))
	tb := dataset.New("sep", []string{"f0", "f1"}, []string{"a", "b"})
	for i := 0; i < 150; i++ {
		y := i % 2
		if err := tb.Append([]float64{float64(y)*4 - 2 + rng.NormFloat64()*0.4, rng.NormFloat64()}, y); err != nil {
			t.Fatal(err)
		}
	}
	trained, err := mlc.Train(ctx, service.TrainRequest{Algorithm: "lr", Train: service.FromTable(tb), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if trained.Metrics.Accuracy < 0.9 {
		t.Fatalf("accuracy %.3f", trained.Metrics.Accuracy)
	}

	// Explain through the gateway using the fetched model.
	model, err := mlc.FetchModel(ctx, trained.ModelID)
	if err != nil {
		t.Fatal(err)
	}
	mblob, err := ml.MarshalModel(model)
	if err != nil {
		t.Fatal(err)
	}
	attr, err := shapc.SHAP(ctx, service.SHAPRequest{
		Model:      mblob,
		Instance:   tb.X[0],
		Class:      tb.Y[0],
		Background: tb.X[1:4],
		Samples:    100,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(attr) != 2 {
		t.Fatalf("attribution %v", attr)
	}

	// Publish a reading to the external dashboard process and read the
	// summary back.
	dashClient := &dashboard.Client{BaseURL: "http://" + dashAddr}
	deadline := time.Now().Add(10 * time.Second)
	for {
		err = dashClient.Publish(ctx, sensor.Reading{
			Sensor:   "itest",
			Property: sensor.PropPerformance,
			Value:    trained.Metrics.Accuracy,
			Time:     time.Now(),
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dashboard never came up: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	resp, err := http.Get("http://" + dashAddr + "/api/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var summary struct {
		Latest map[string]sensor.Reading `json:"latest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&summary); err != nil {
		t.Fatal(err)
	}
	if summary.Latest["itest"].Value != trained.Metrics.Accuracy {
		t.Fatalf("dashboard summary %+v", summary)
	}

	// The gateway's metrics endpoint saw the traffic.
	mresp, err := http.Get("http://" + gwAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	exposition, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(exposition), `spatial_http_requests_total{service="gateway",route="/ml",method="POST",code="2xx"}`) {
		t.Fatalf("gateway recorded no /ml requests:\n%s", exposition)
	}
}
