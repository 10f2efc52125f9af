// Package directives is spatial-lint golden-corpus input for the
// lint-directive meta-check: a malformed suppression must itself be a
// finding, and must not suppress anything.
package directives

import (
	"io"
	"time"
)

// BadWaiver omits the mandatory reason, so the directive is rejected
// and the time.Now finding survives.
func BadWaiver() time.Time {
	//lint:ignore wall-clock
	return time.Now() // want "time.Now bypasses internal/clock"
}

// GoodWaiver is well-formed for contrast, and waives two checks (the
// dropped Write error and the clock read) in one directive; nothing
// reported.
func GoodWaiver(w io.Writer) {
	w.Write([]byte(time.Now().String())) //lint:ignore unchecked-err,wall-clock corpus demo of a complete directive
}
