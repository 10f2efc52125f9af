package ml

import (
	"testing"
	"unsafe"
)

// TestNodeSize holds the figures DESIGN §4c quotes: every tree in the
// package is grown and serialised as one 24-byte node and walked as one
// 16-byte compiled step.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 24 {
		t.Fatalf("node is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(step{}); got != 16 {
		t.Fatalf("step is %d bytes, want 16", got)
	}
}

// countLeaves walks a boosted tree and returns its leaf count.
func countLeaves(tr *gbTree) int {
	leaves := 0
	for _, n := range tr.nodes {
		if n.Feature < 0 {
			leaves++
		}
	}
	return leaves
}

// maxDepthOf returns the depth of the subtree rooted at idx (0 for a leaf).
func maxDepthOf(ns nodes, idx int32) int {
	n := ns[idx]
	if n.Feature < 0 {
		return 0
	}
	l, r := maxDepthOf(ns, n.Left), maxDepthOf(ns, n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}

func TestLeafWiseTreesRespectLeafBudget(t *testing.T) {
	data := blobs(40, 300, 5, 3, 1.5)
	cfg := GBDTConfig{Rounds: 5, LearningRate: 0.2, MaxLeaves: 6, MinChildWeight: 1e-4, Lambda: 1, Growth: GrowLeafWise, MaxBins: 16, Seed: 1}
	g := NewGBDT(cfg)
	if err := g.Fit(data); err != nil {
		t.Fatal(err)
	}
	for _, class := range g.TreesPerClass {
		for _, tr := range class {
			if leaves := countLeaves(tr); leaves > 6 {
				t.Fatalf("leaf-wise tree has %d leaves, budget 6", leaves)
			}
		}
	}
}

func TestLevelWiseTreesRespectDepthLimit(t *testing.T) {
	data := blobs(41, 300, 5, 3, 1.5)
	cfg := GBDTConfig{Rounds: 5, LearningRate: 0.2, MaxDepth: 3, MinChildWeight: 1e-4, Lambda: 1, Growth: GrowLevelWise, Seed: 1}
	g := NewGBDT(cfg)
	if err := g.Fit(data); err != nil {
		t.Fatal(err)
	}
	for _, class := range g.TreesPerClass {
		for _, tr := range class {
			if d := maxDepthOf(tr.nodes, 0); d > 3 {
				t.Fatalf("level-wise tree depth %d exceeds limit 3", d)
			}
		}
	}
}

func TestGBDTTreeStructureConsistent(t *testing.T) {
	// Every internal node's children must be in range and every tree
	// must have internal+1 == leaves (binary-tree invariant).
	data := blobs(42, 200, 4, 2, 1.0)
	for _, growth := range []GBDTGrowth{GrowLeafWise, GrowLevelWise} {
		cfg := GBDTConfig{Rounds: 4, LearningRate: 0.2, MaxLeaves: 8, MaxDepth: 4, MinChildWeight: 1e-4, Lambda: 1, Growth: growth, MaxBins: 16, Seed: 1}
		g := NewGBDT(cfg)
		if err := g.Fit(data); err != nil {
			t.Fatal(err)
		}
		for _, class := range g.TreesPerClass {
			for _, tr := range class {
				internal := 0
				for _, n := range tr.nodes {
					if n.Feature < 0 {
						continue
					}
					internal++
					if n.Left < 0 || int(n.Left) >= len(tr.nodes) || n.Right < 0 || int(n.Right) >= len(tr.nodes) {
						t.Fatalf("child index out of range: %+v", n)
					}
				}
				if leaves := countLeaves(tr); leaves != internal+1 {
					t.Fatalf("growth %d: %d internal nodes but %d leaves", growth, internal, leaves)
				}
			}
		}
	}
}

func TestGBDTConfigValidation(t *testing.T) {
	data := blobs(43, 50, 3, 2, 1.0)
	bad := GBDTConfig{Rounds: 0, LearningRate: 0.1, MaxDepth: 3, Growth: GrowLevelWise}
	if err := NewGBDT(bad).Fit(data); err == nil {
		t.Fatal("expected rounds error")
	}
	bad2 := GBDTConfig{Rounds: 5, LearningRate: 0.1, MaxLeaves: 1, Growth: GrowLeafWise}
	if err := NewGBDT(bad2).Fit(data); err == nil {
		t.Fatal("expected leaf-budget error")
	}
	bad3 := GBDTConfig{Rounds: 5, LearningRate: 0.1, MaxDepth: 0, Growth: GrowLevelWise}
	if err := NewGBDT(bad3).Fit(data); err == nil {
		t.Fatal("expected depth error")
	}
}
