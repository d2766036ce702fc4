package exec

import (
	"math"
	"math/bits"
)

// exactSum is the running sum behind SUM and AVG. It holds the exact
// value of everything added — int64 inputs in a 128-bit integer, float64
// inputs in a fixed-point superaccumulator — so adding and merging are
// exact, associative and commutative: the sum, and its single rounding
// in float, depend on neither input order nor chunking.
type exactSum struct {
	lo uint64 // int64 inputs: the 128-bit two's-complement sum hi:lo
	hi int64
	fl *superAcc // float64 inputs; nil until the first one
	n  int64     // inputs added
}

// add adds an int64 or float64 input; any other type reports false.
func (s *exactSum) add(v Value) bool {
	switch v := v.(type) {
	case int64:
		var c uint64
		s.lo, c = bits.Add64(s.lo, uint64(v), 0)
		s.hi += v>>63 + int64(c)
	case float64:
		if s.fl == nil {
			s.fl = new(superAcc)
		}
		s.fl.addFloat(v)
	default:
		return false
	}
	s.n++
	return true
}

// merge adds o's inputs into s. o must not be used afterwards.
func (s *exactSum) merge(o *exactSum) {
	var c uint64
	s.lo, c = bits.Add64(s.lo, o.lo, 0)
	s.hi += o.hi + int64(c)
	s.n += o.n
	switch {
	case s.fl == nil:
		s.fl = o.fl
	case o.fl != nil:
		s.fl.merge(o.fl)
	}
}

// float returns the exact sum of every input, int64 and float64 alike,
// correctly rounded to float64 (see superAcc.round).
func (s *exactSum) float() float64 {
	var t superAcc
	if s.fl != nil {
		t = *s.fl
	}
	t.addBits(s.lo, accUnitPos, false)
	if s.hi < 0 {
		t.addBits(uint64(-s.hi), accUnitPos+64, true)
	} else {
		t.addBits(uint64(s.hi), accUnitPos+64, false)
	}
	return t.round()
}

const (
	// accDigits 32-bit digits span bit 0 (2^-1074, the smallest
	// subnormal) through the top bit of MaxFloat64 (bit 2097) and the
	// 128-bit integer part, plus one carry-only top digit.
	accDigits = 67
	// accUnitPos is the bit position of 2^0.
	accUnitPos = 1074
	// accNormalizeEvery bounds the adds between carry propagations: each
	// add moves a digit by less than 2^32, so digits stay far inside
	// int64.
	accNormalizeEvery = 1 << 24
)

// superAcc is a fixed-point accumulator wide enough to hold any sum of
// float64s exactly, in units of 2^-1074: digit i carries bits
// [32i, 32i+32). Digits are signed with 31 bits of headroom, so an add
// touches three digits without carrying; normalize propagates carries.
// Infinities and NaN are flags, so they cannot disturb the finite part.
type superAcc struct {
	d                   [accDigits]int64
	adds                int32
	nan, posInf, negInf bool
}

func (a *superAcc) addFloat(f float64) {
	b := math.Float64bits(f)
	exp, mant, neg := int(b>>52&0x7ff), b&(1<<52-1), b>>63 != 0
	switch {
	case exp == 0x7ff && mant != 0:
		a.nan = true
	case exp == 0x7ff && neg:
		a.negInf = true
	case exp == 0x7ff:
		a.posInf = true
	case exp == 0: // zero or subnormal: mant·2^-1074
		a.addBits(mant, 0, neg)
	default: // (2^52+mant)·2^(exp-1075)
		a.addBits(mant|1<<52, exp-1, neg)
	}
}

// addBits adds ±v·2^pos (pos in accumulator bits) to the three digits
// the shifted value spans.
func (a *superAcc) addBits(v uint64, pos int, neg bool) {
	k, sh := pos/32, uint(pos%32)
	d0, d1, d2 := int64(v<<sh&(1<<32-1)), int64(v<<sh>>32), int64(v>>(64-sh))
	if neg {
		d0, d1, d2 = -d0, -d1, -d2
	}
	a.d[k] += d0
	a.d[k+1] += d1
	a.d[k+2] += d2
	if a.adds++; a.adds >= accNormalizeEvery {
		a.normalize()
	}
}

func (a *superAcc) merge(o *superAcc) {
	for i := range a.d {
		a.d[i] += o.d[i]
	}
	a.nan, a.posInf, a.negInf = a.nan || o.nan, a.posInf || o.posInf, a.negInf || o.negInf
	if a.adds += o.adds + 1; a.adds >= accNormalizeEvery {
		a.normalize()
	}
}

// normalize propagates carries so every digit but the top one lies in
// [0, 2^32); the top digit's sign is then the sign of the sum.
func (a *superAcc) normalize() {
	for i := 0; i < accDigits-1; i++ {
		c := a.d[i] >> 32
		a.d[i] -= c << 32
		a.d[i+1] += c
	}
	a.adds = 0
}

// round returns the accumulated value correctly rounded to float64:
// round half to even, ±Inf when the finite sum overflows, NaN when a NaN
// was added or both infinities were. It consumes the accumulator.
func (a *superAcc) round() float64 {
	switch {
	case a.nan || a.posInf && a.negInf:
		return math.NaN()
	case a.posInf:
		return math.Inf(1)
	case a.negInf:
		return math.Inf(-1)
	}
	a.normalize()
	sign := 1.0
	if a.d[accDigits-1] < 0 {
		sign = -1
		for i := range a.d {
			a.d[i] = -a.d[i]
		}
		a.normalize()
	}
	if a.d[accDigits-1] != 0 {
		return math.Inf(int(sign))
	}
	t := accDigits - 2
	for t >= 0 && a.d[t] == 0 {
		t--
	}
	if t < 0 {
		return 0
	}
	msb := 32*t + bits.Len64(uint64(a.d[t])) - 1
	if msb < 53 {
		// At most 53 significant bits: exactly representable.
		return sign * math.Ldexp(float64(a.bitsFrom(0)), -accUnitPos)
	}
	m := a.bitsFrom(msb-52) & (1<<53 - 1)
	if a.bitsFrom(msb-53)&1 != 0 && (m&1 != 0 || a.anyBelow(msb-53)) {
		m++ // 2^53 is still exact; Ldexp renormalizes or overflows
	}
	return sign * math.Ldexp(float64(m), msb-52-accUnitPos)
}

// bitsFrom returns the 64 bits starting at bit lo of a normalized,
// non-negative, non-overflowed accumulator (so lo ≤ 2111-52 and the
// three digits read exist).
func (a *superAcc) bitsFrom(lo int) uint64 {
	k, sh := lo/32, uint(lo%32)
	return uint64(a.d[k])>>sh | uint64(a.d[k+1])<<(32-sh) | uint64(a.d[k+2])<<(64-sh)
}

// anyBelow reports whether any of bits [0, n) is set.
func (a *superAcc) anyBelow(n int) bool {
	k := n / 32
	for _, d := range a.d[:k] {
		if d != 0 {
			return true
		}
	}
	return a.d[k]&(1<<(n%32)-1) != 0
}
