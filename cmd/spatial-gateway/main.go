// Command spatial-gateway runs the SPATIAL API gateway (the Kong
// equivalent) in front of the metric micro-services.
//
// Usage:
//
//	spatial-gateway -addr 127.0.0.1:8100 \
//	  -route /ml=http://127.0.0.1:8101 \
//	  -route /shap=http://127.0.0.1:8102,http://127.0.0.1:8112 \
//	  -policy least-conn -rate 100 -apikey secret1 -apikey secret2
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/gateway"
	"repro/internal/wire"
)

// stringList collects repeatable flags.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spatial-gateway:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("spatial-gateway", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8100", "listen address")
	policyName := fs.String("policy", "round-robin", "balancing policy: round-robin or least-conn")
	rate := fs.Float64("rate", 0, "per-client rate limit in requests/second (0 = off)")
	burst := fs.Int("burst", 0, "rate-limit burst (default = rate)")
	health := fs.Duration("health-interval", time.Second, "upstream health-check period")
	var routes, keys stringList
	fs.Var(&routes, "route", "route as /prefix=http://backend1[,http://backend2] (repeatable)")
	fs.Var(&keys, "apikey", "valid API key (repeatable; enables auth)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(routes) == 0 {
		return errors.New("at least one -route is required")
	}
	var policy gateway.Balancing
	switch *policyName {
	case "round-robin":
		policy = gateway.RoundRobin
	case "least-conn":
		policy = gateway.LeastConnections
	default:
		return fmt.Errorf("unknown policy %q", *policyName)
	}

	gw := gateway.New(gateway.Config{
		APIKeys:        keys,
		RatePerSecond:  *rate,
		Burst:          *burst,
		HealthInterval: *health,
	})
	for _, r := range routes {
		prefix, backends, ok := strings.Cut(r, "=")
		if !ok {
			return fmt.Errorf("route %q must be /prefix=backend[,backend]", r)
		}
		if err := gw.AddRoute(prefix, policy, strings.Split(backends, ",")...); err != nil {
			return err
		}
		fmt.Printf("route %s -> %s\n", prefix, backends)
	}
	var servers wire.Servers
	if _, err := servers.Listen(*addr, gw); err != nil {
		return err
	}
	gw.Start()
	fmt.Printf("gateway listening on http://%s (Prometheus exposition at /metrics, spans at /traces)\n", *addr)
	return servers.Wait(context.Background(), gw.Stop)
}
