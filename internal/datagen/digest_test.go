package datagen_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/datagen"
	"repro/internal/dataset"
)

// tableDigest hashes a table's rows as float64 bits, then its labels, then
// any extra integers (the loan generator's groups). Names are left out:
// the digest pins the numbers every figure is computed from.
func tableDigest(tb *dataset.Table, extra []int) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	put(uint64(len(tb.X)))
	for _, row := range tb.X {
		put(uint64(len(row)))
		for _, v := range row {
			put(math.Float64bits(v))
		}
	}
	for _, y := range tb.Y {
		put(uint64(y))
	}
	for _, g := range extra {
		put(uint64(g))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorDigests holds every synthetic generator, and the synthetic
// poisoner that feeds Fig. 7, to the exact bits of a small fixed-seed
// draw: a change to any draw, its order or an arithmetic step moves them.
func TestGeneratorDigests(t *testing.T) {
	netCfg := datagen.DefaultNetTrafficConfig()
	netCfg.Web, netCfg.Interactive, netCfg.Video, netCfg.Seed = 30, 8, 10, 2
	net, _, err := datagen.NetTraffic(netCfg)
	if err != nil {
		t.Fatal(err)
	}
	loanCfg := datagen.DefaultLoanConfig()
	loanCfg.Samples = 80
	loan, groups, err := datagen.Loan(loanCfg)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := datagen.UniMiB(datagen.UniMiBConfig{Samples: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := datagen.UniMiBBinary(datagen.UniMiBConfig{Samples: 40, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	shapes, err := datagen.Shapes(datagen.ShapesConfig{Samples: 12, Size: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	poisoned, err := attack.PoisonSynthetic(net, 25, 0.4, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, want string
		got        string
	}{
		{"UniMiB", "d6eb632c81f68af00900dcf2d652ea19b6b88d21fcee39b40c00ef26b3a00e36", tableDigest(uni, nil)},
		{"UniMiBBinary", "ead6ea2783b517263b9ead4867588b4ec4e91b1039986739abfb97b59baad7be", tableDigest(bin, nil)},
		{"NetTraffic", "e7c9081cffa1c1e4061741c8c01cd48bf495a79fc1f5e19b4ee584fda8ac5188", tableDigest(net, nil)},
		{"Shapes", "7aa1191e2914bf7bfb04af320448183cdd8069bb23d5e4166f4be77c9dc29cf9", tableDigest(shapes, nil)},
		{"Loan", "0f2f7a145c86886096ff58be42d970fe4bee8fb5a317664c78fe571845cb1703", tableDigest(loan, groups)},
		{"PoisonSynthetic", "f9f4b2b1efe3116ad1af507268046ee70c5d136d4830579a736ef796d311c372", tableDigest(poisoned, nil)},
	} {
		if c.got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, c.got, c.want)
		}
	}
}
