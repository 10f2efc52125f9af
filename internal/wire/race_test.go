//go:build race

package wire_test

// The race detector drops a quarter of sync.Pool puts, so a pooled body
// buffer is reallocated at random and allocation counts are not exact.
func init() { raceEnabled = true }
