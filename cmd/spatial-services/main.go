// Command spatial-services runs the SPATIAL metric micro-services, each on
// its own address, mirroring the paper's one-machine-per-service
// deployment.
//
// Usage:
//
//	spatial-services \
//	  -ml 127.0.0.1:8101 -shap 127.0.0.1:8102 -lime 127.0.0.1:8103 \
//	  -occlusion 127.0.0.1:8104 -resilience 127.0.0.1:8105 \
//	  -fairness 127.0.0.1:8106 -privacy 127.0.0.1:8107
//
// Omit a flag to skip that service.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"

	"repro/internal/service"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spatial-services:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("spatial-services", flag.ContinueOnError)
	mlAddr := fs.String("ml", "127.0.0.1:8101", "ML-pipeline service address (empty to disable)")
	shapAddr := fs.String("shap", "127.0.0.1:8102", "SHAP service address (empty to disable)")
	limeAddr := fs.String("lime", "127.0.0.1:8103", "LIME service address (empty to disable)")
	occAddr := fs.String("occlusion", "127.0.0.1:8104", "occlusion service address (empty to disable)")
	resAddr := fs.String("resilience", "127.0.0.1:8105", "resilience service address (empty to disable)")
	fairAddr := fs.String("fairness", "127.0.0.1:8106", "fairness service address (empty to disable)")
	privAddr := fs.String("privacy", "127.0.0.1:8107", "privacy service address (empty to disable)")
	driftAddr := fs.String("drift", "127.0.0.1:8108", "drift service address (empty to disable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	type entry struct {
		name    string
		addr    string
		handler http.Handler
	}
	entries := []entry{
		{"ml-pipeline", *mlAddr, service.NewMLService()},
		{"shap", *shapAddr, service.NewSHAPService()},
		{"lime", *limeAddr, service.NewLIMEService()},
		{"occlusion", *occAddr, service.NewOcclusionService()},
		{"resilience", *resAddr, service.NewResilienceService()},
		{"fairness", *fairAddr, service.NewFairnessService()},
		{"privacy", *privAddr, service.NewPrivacyService()},
		{"drift", *driftAddr, service.NewDriftService()},
	}

	var servers wire.Servers
	started := 0
	for _, e := range entries {
		if e.addr == "" {
			continue
		}
		if _, err := servers.Listen(e.addr, e.handler); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		started++
		fmt.Printf("started %s on http://%s (scrape /metrics, spans at /traces)\n", e.name, e.addr)
	}
	if started == 0 {
		return errors.New("no services enabled")
	}
	err := servers.Wait(context.Background())
	fmt.Println("stopped")
	return err
}
