// Package appendalias is spatial-lint golden-corpus input for the
// append-alias analyzer: appends whose result is lost, and diverging
// appends sharing a backing array.
package appendalias

// deadAppend grows a local slice nobody reads again.
func deadAppend(vals []int) int {
	sum := 0
	scratch := make([]int, 0, len(vals))
	for _, v := range vals {
		sum += v
		scratch = append(scratch, v)
	}
	scratch = append(scratch, sum) // want "result of append to scratch is never used"
	return sum
}

// appendToParam is the classic lost-append: the caller's slice header
// never changes.
func appendToParam(s []int, v int) {
	s = append(s, v) // want "append to parameter s is lost"
}

// returned is the correct shape; nothing reported.
func returned(s []int, v int) []int {
	return append(s, v)
}

// usedAfter keeps the result live; nothing reported.
func usedAfter(vals []int) int {
	out := make([]int, 0, len(vals))
	for _, v := range vals {
		out = append(out, v*2)
	}
	return len(out)
}

// diverged appends twice from the same base: with spare capacity the
// second append overwrites the first one's element.
func diverged(base []int) ([]int, []int) {
	a := append(base, 1)
	b := append(base, 2) // want "second append from base may overwrite"
	return a, b
}

// branchArms append from base on mutually exclusive paths; the CFG keeps
// them apart, so nothing is reported.
func branchArms(base []int, hi bool) []int {
	var out []int
	if hi {
		out = append(base, 1)
	} else {
		out = append(base, 2)
	}
	return out
}

// waived shows the suppression syntax.
func waived(s []int, v int) {
	s = append(s, v) //lint:ignore append-alias corpus demo: scratch append measured for reallocation cost only
}
