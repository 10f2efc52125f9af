// Copyright 2020 The Go Authors. All rights reserved.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//   - Redistributions of source code must retain the above copyright
//     notice, this list of conditions and the following disclaimer.
//   - Redistributions in binary form must reproduce the above
//     copyright notice, this list of conditions and the following disclaimer
//     in the documentation and/or other materials provided with the
//     distribution.
//   - Neither the name of Google LLC nor the names of its
//     contributors may be used to endorse or promote products derived from
//     this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

package wire

// eiselLemire64 is ported from the Go standard library's
// strconv/eisel_lemire.go (go1.24), float64 flavour only. The algorithm is
// described at https://nigeltao.github.io/blog/2020/eisel-lemire.html; the
// terse comments in the function body name that post's sections. The
// standard library lists its powers-of-ten table; here it is computed.

import (
	"math"
	"math/big"
	"math/bits"
)

// eiselLemire64 returns (-1)^neg × man × 10^exp10 rounded to the nearest
// float64, ties to even — the value strconv.ParseFloat gives the same
// decimal. ok is false where one step cannot decide: a product too close
// to a rounding boundary, an exponent outside pow10, a result that is
// subnormal or overflows. The caller then asks ParseFloat.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < pow10Min || pow10Max < exp10 {
		return 0, false
	}

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow10[exp10-pow10Min][1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow10[exp10-pow10Min][0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64. Zero or underflow means that we're in subnormal
	// float64 space. 0x7FF or above means that we're in Inf/NaN float64 space.
	//
	// The if block is equivalent to (but has fewer branches than):
	//   if retExp2 <= 0 || retExp2 >= 0x7FF { etc }
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}

// pow10Min and pow10Max are the first and last powers of ten in pow10.
const (
	pow10Min = -348
	pow10Max = +347
)

// pow10 holds, for each power of ten from 10^pow10Min to 10^pow10Max, its
// leading 128 bits rounded down, as {low, high} halves; the binary exponent
// is implied by a linear expression with slope 217706/65536 ≈ log2(10).
// For example 1e43 ≈ 0xE596B7B0_C643C719_6D9CCD05_D0000000 × 2^15.
var pow10 = powersOfTen()

// powersOfTen computes pow10 exactly. With n the bit length of 10^|e|, the
// leading 128 bits of 10^e are ⌊10^e × 2^(128−n)⌋ for e ≥ 0 and
// ⌊2^(127+n) / 10^−e⌋ for e < 0; the second has 128 bits too, because
// 10^−e is not a power of two and so lies strictly between 2^(n−1) and 2^n.
func powersOfTen() (t [pow10Max - pow10Min + 1][2]uint64) {
	ten := big.NewInt(10)
	for i := range t {
		e := int64(i + pow10Min)
		p := new(big.Int).Exp(ten, big.NewInt(max(e, -e)), nil)
		m := new(big.Int)
		if e >= 0 {
			m.Lsh(p, 128).Rsh(m, uint(p.BitLen()))
		} else {
			m.Lsh(big.NewInt(1), uint(127+p.BitLen())).Quo(m, p)
		}
		t[i] = [2]uint64{m.Uint64(), m.Rsh(m, 64).Uint64()}
	}
	return t
}
