// Command spatial-benchjson converts `go test -bench` text output read
// from stdin into a stable JSON document, so benchmark results can be
// committed and diffed instead of living in scrollback.
//
// Usage:
//
//	go test -bench=Serving -benchmem -run='^$' ./internal/serving/ |
//	  spatial-benchjson -out BENCH_serving.json
//
// The raw benchmark lines are echoed to stderr so the terminal still
// shows progress while the JSON goes to the file. Parsing is strict: a
// malformed Benchmark line, a FAIL, or an empty run exits nonzero and
// writes nothing, so a truncated run can never silently replace the
// committed baseline with a partial document. Lines without -benchmem
// columns parse fine.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/benchfmt"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spatial-benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("spatial-benchjson", flag.ContinueOnError)
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	doc, err := benchfmt.ParseStream(os.Stdin, os.Stderr)
	if err != nil {
		return err
	}

	buf, err := doc.Marshal()
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(*out, buf, 0o644)
}
