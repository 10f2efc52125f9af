// Package maporderleak is spatial-lint golden-corpus input for the
// map-order-leak analyzer: map iteration whose order can reach
// serialized output.
package maporderleak

import (
	"fmt"
	"sort"
	"strings"
)

// Dump serializes straight out of the map range.
func Dump(w *strings.Builder, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want "map iteration order reaches serialized output"
	}
}

// Collect appends keys it never sorts.
func Collect(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "map iteration appends to a slice never sorted"
	}
	return keys
}

// CollectSorted is the collect-then-sort idiom and must not flag.
func CollectSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// NearMiss sorts the keys but appends the values in map order: the
// exemption is per variable, so sorting a neighbour does not help.
func NearMiss(m map[string]int) ([]string, []int) {
	var keys []string
	var vals []int
	for k, v := range m {
		keys = append(keys, k)
		vals = append(vals, v) // want "map iteration appends to a slice never sorted"
	}
	sort.Strings(keys)
	return keys, vals
}

// Debug emits an intentionally unordered dump behind a reasoned
// suppression.
func Debug(m map[string]int) {
	for k, v := range m {
		//lint:ignore map-order-leak debug-only dump; order is explicitly unspecified here
		fmt.Printf("%s=%d\n", k, v)
	}
}
