package serving

import "testing"

// TestServingAllocCeilings pins the exact allocation counts of the
// serving path under the 128-client benchmark load: the serial pair
// allocates its one probability vector, the batched pair five objects
// per Predict. Allocation counts do not depend on the machine or the
// day, so the ceilings are constants here, beside internal/ml's
// TestPredictAllocBudgets for the kernels. The race detector makes
// sync.Pool drop items at random, so the counts only hold without it.
func TestServingAllocCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the bench models and runs four one-second benchmarks")
	}
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	for _, tc := range []struct {
		name    string
		bench   func(*testing.B)
		ceiling int64
	}{
		{"SerialForest", BenchmarkServingSerialForest, 1},
		{"SerialGBDT", BenchmarkServingSerialGBDT, 1},
		{"BatchedForest", BenchmarkServingBatchedForest, 5},
		{"BatchedGBDT", BenchmarkServingBatchedGBDT, 5},
	} {
		res := testing.Benchmark(tc.bench)
		if res.N == 0 {
			t.Fatalf("%s: benchmark failed", tc.name)
		}
		if got := res.AllocsPerOp(); got > tc.ceiling {
			t.Errorf("%s: %d allocs/op, ceiling %d", tc.name, got, tc.ceiling)
		}
	}
}
