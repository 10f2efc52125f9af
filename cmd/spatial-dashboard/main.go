// Command spatial-dashboard runs the AI dashboard: the ingest API that AI
// sensors publish to, plus the JSON query API and the HTML view for human
// operators.
//
// Usage:
//
//	spatial-dashboard -addr 127.0.0.1:8088 -capacity 4096
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/dashboard"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spatial-dashboard:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("spatial-dashboard", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8088", "listen address")
	capacity := fs.Int("capacity", 4096, "readings kept per sensor")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var servers wire.Servers
	if _, err := servers.Listen(*addr, dashboard.NewServer(dashboard.NewStore(*capacity))); err != nil {
		return err
	}
	fmt.Printf("dashboard on http://%s (ingest at POST /api/readings, scrape /metrics, spans at /traces)\n", *addr)
	return servers.Wait(context.Background())
}
