package lint

import (
	"go/ast"
	"strings"
)

// AnalyzerWallClock flags direct wall-clock reads and timers (time.Now,
// time.Sleep, time.After, ...) in the packages that committed to the
// internal/clock injection surface (sensor, loadgen, serving, service,
// gateway, scenario).
// Those packages' tests drive schedules with clock.Fake; one raw time
// call reintroduces scheduler-load-dependent timing and flaky latency
// assertions. Referencing `time.Now` as a value (the `now: time.Now`
// default-field idiom) is the sanctioned injection point and is not
// flagged — only calls are.
var AnalyzerWallClock = &Analyzer{
	Name:     "wall-clock",
	Doc:      "flags direct time.Now/Sleep/After/... calls in packages that must route through internal/clock",
	Severity: SeverityWarn,
	// Every internal package must route through internal/clock — the
	// virtual-time scenario engine replays campaigns against any of them.
	// internal/clock itself wraps the time package by design.
	AppliesTo: func(path string) bool {
		return strings.Contains(path, "internal/") && !strings.Contains(path, "internal/clock")
	},
	Run: runWallClock,
}

// wallClockFuncs are the flagged time package calls. clock.Clock offers
// Now, Since, After and NewTicker; there is no Clock.Sleep (select on
// Clock.After instead), and clock.Ticker's C is a method, not a field.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"After":     true,
	"Sleep":     true,
	"Tick":      true,
	"AfterFunc": true,
	"NewTicker": true,
	"NewTimer":  true,
	"Until":     true,
}

func runWallClock(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, name, ok := p.PkgFunc(call)
			if !ok || path != "time" {
				return true
			}
			if !wallClockFuncs[name] {
				return true
			}
			p.Reportf(call.Pos(),
				"time.%s bypasses internal/clock; thread a clock.Clock (clock.Real() in production) so tests can fake time", name)
			return true
		})
	}
}
