package core

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/dashboard"
	"repro/internal/gateway"
	"repro/internal/sensor"
	"repro/internal/service"
	"repro/internal/wire"
)

// Options parameterizes a SPATIAL deployment.
type Options struct {
	// APIKeys enables gateway authentication when non-empty.
	APIKeys []string
	// RatePerSecond/Burst configure gateway rate limiting (0 = off).
	RatePerSecond float64
	Burst         int
	// HealthInterval is the gateway's upstream health-check period.
	HealthInterval time.Duration
	// StoreCapacity bounds the dashboard's per-sensor history.
	StoreCapacity int
}

// System is a fully assembled SPATIAL deployment: the metric
// micro-services, the API gateway fronting them, the AI dashboard, and a
// sensor manager publishing into the dashboard store.
type System struct {
	ML         *service.MLService
	SHAP       *service.SHAPService
	LIME       *service.LIMEService
	Occlusion  *service.OcclusionService
	Resilience *service.ResilienceService
	Fairness   *service.FairnessService
	Privacy    *service.PrivacyService
	Drift      *service.DriftService

	Gateway   *gateway.Gateway
	Dashboard *dashboard.Server
	Sensors   *sensor.Manager

	mu       sync.Mutex
	servers  wire.Servers
	deployed bool

	gatewayURL   string
	dashboardURL string
}

// NewSystem builds the system in-process. Call DeployLocal to expose it
// over loopback TCP, or use the handlers directly in tests.
func NewSystem(opts Options) *System {
	store := dashboard.NewStore(opts.StoreCapacity)
	sys := &System{
		ML:         service.NewMLService(),
		SHAP:       service.NewSHAPService(),
		LIME:       service.NewLIMEService(),
		Occlusion:  service.NewOcclusionService(),
		Resilience: service.NewResilienceService(),
		Fairness:   service.NewFairnessService(),
		Privacy:    service.NewPrivacyService(),
		Drift:      service.NewDriftService(),
		Dashboard:  dashboard.NewServer(store),
		Gateway: gateway.New(gateway.Config{
			APIKeys:        opts.APIKeys,
			RatePerSecond:  opts.RatePerSecond,
			Burst:          opts.Burst,
			HealthInterval: opts.HealthInterval,
		}),
	}
	sys.Sensors = sensor.NewManager(dashboard.StoreSink{Store: store})
	return sys
}

// DeployLocal binds every micro-service, the gateway, and the dashboard to
// loopback listeners, registers the gateway routes, and starts the
// gateway's health checker. It returns the gateway and dashboard base
// URLs.
func (s *System) DeployLocal(ctx context.Context) (gatewayURL, dashboardURL string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deployed {
		return s.gatewayURL, s.dashboardURL, nil
	}

	type svc struct {
		prefix  string
		handler http.Handler
	}
	services := []svc{
		{"/ml", s.ML},
		{"/shap", s.SHAP},
		{"/lime", s.LIME},
		{"/occlusion", s.Occlusion},
		{"/resilience", s.Resilience},
		{"/fairness", s.Fairness},
		{"/privacy", s.Privacy},
		{"/drift", s.Drift},
	}
	for _, sv := range services {
		url, err := s.servers.Listen("127.0.0.1:0", sv.handler)
		if err != nil {
			s.shutdownLocked(ctx)
			return "", "", fmt.Errorf("deploy %s: %w", sv.prefix, err)
		}
		if err := s.Gateway.AddRoute(sv.prefix, gateway.RoundRobin, url); err != nil {
			s.shutdownLocked(ctx)
			return "", "", fmt.Errorf("route %s: %w", sv.prefix, err)
		}
	}

	gatewayURL, err = s.servers.Listen("127.0.0.1:0", s.Gateway)
	if err != nil {
		s.shutdownLocked(ctx)
		return "", "", fmt.Errorf("deploy gateway: %w", err)
	}
	dashboardURL, err = s.servers.Listen("127.0.0.1:0", s.Dashboard)
	if err != nil {
		s.shutdownLocked(ctx)
		return "", "", fmt.Errorf("deploy dashboard: %w", err)
	}
	s.Gateway.Start()
	s.deployed = true
	s.gatewayURL, s.dashboardURL = gatewayURL, dashboardURL
	return gatewayURL, dashboardURL, nil
}

// ServiceClient returns a typed client for one gateway route (e.g. "/shap").
func (s *System) ServiceClient(prefix, apiKey string) *service.Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &service.Client{BaseURL: s.gatewayURL + prefix, APIKey: apiKey}
}

// GatewayURL returns the deployed gateway base URL ("" before DeployLocal).
func (s *System) GatewayURL() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gatewayURL
}

// TrustReport aggregates the latest reading of every registered sensor.
func (s *System) TrustReport(weights TrustWeights) (TrustReport, error) {
	var readings []sensor.Reading
	for _, name := range s.Sensors.Names() {
		if r, ok := s.Sensors.Last(name); ok {
			readings = append(readings, r)
		}
	}
	return Trust(readings, weights)
}

// Shutdown stops sensors, the gateway health checker, and all HTTP
// servers.
func (s *System) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shutdownLocked(ctx)
}

// shutdownLocked stops the sensors and the gateway first — the gateway
// owns the pooled connections into the service servers, and closing them
// is what lets those servers drain at once — then the servers.
func (s *System) shutdownLocked(ctx context.Context) error {
	err := s.servers.Shutdown(ctx, s.Sensors.Stop, s.Gateway.Stop)
	s.deployed = false
	return err
}
