package exec

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// oracleSum is the reference SUM: int64 inputs alone wrap like int64
// addition; with any float64 input, NaN (or +Inf beside -Inf) gives NaN,
// one infinity gives itself, and otherwise the exact rational sum of
// every input is rounded by big.Rat.Float64 (nearest, ties to even,
// overflow to ±Inf).
func oracleSum(vals []Value) Value {
	var (
		exact                   big.Rat
		wrapped                 int64
		anyFloat, nan, pos, neg bool
	)
	for _, v := range vals {
		switch v := v.(type) {
		case int64:
			wrapped += v
			exact.Add(&exact, new(big.Rat).SetInt64(v))
		case float64:
			anyFloat = true
			switch {
			case math.IsNaN(v):
				nan = true
			case math.IsInf(v, 1):
				pos = true
			case math.IsInf(v, -1):
				neg = true
			default:
				exact.Add(&exact, new(big.Rat).SetFloat64(v))
			}
		}
	}
	switch {
	case len(vals) == 0:
		return nil
	case !anyFloat:
		return wrapped
	case nan || pos && neg:
		return math.NaN()
	case pos:
		return math.Inf(1)
	case neg:
		return math.Inf(-1)
	}
	f, _ := exact.Float64()
	return f
}

// oracleAvg is the reference AVG: the rounded exact sum over the count.
func oracleAvg(vals []Value) Value {
	s := oracleSum(vals)
	switch s := s.(type) {
	case int64:
		// AVG rounds the exact (unwrapped) sum, not the int64 SUM.
		var exact big.Rat
		for _, v := range vals {
			exact.Add(&exact, new(big.Rat).SetInt64(v.(int64)))
		}
		f, _ := exact.Float64()
		return f / float64(len(vals))
	case float64:
		return s / float64(len(vals))
	}
	return nil
}

// sameValue compares results bit for bit (so NaN equals NaN and -0 does
// not equal +0).
func sameValue(a, b Value) bool {
	fa, okA := a.(float64)
	fb, okB := b.(float64)
	if okA || okB {
		return okA && okB && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return a == b
}

// randomInput draws one SUM input from the edge cases that break naive
// or compensated summation: signed zeros, subnormals, values near
// MaxFloat64, int64 extremes, wide-exponent floats, floats within a few
// binades of each other (whose sums carry bits below the rounding
// point), and — when specials is set — ±Inf and NaN.
func randomInput(rng *rand.Rand, specials bool) Value {
	sign := float64(1 - 2*rng.Intn(2))
	switch rng.Intn(11) {
	case 8, 9:
		return sign * math.Ldexp(1+rng.Float64(), rng.Intn(8))
	case 0:
		return sign * 0
	case 1:
		return sign * math.Float64frombits(rng.Uint64()&(1<<52-1)) // subnormal
	case 2:
		return sign * math.MaxFloat64 * (1 - rng.Float64()*1e-15)
	case 3:
		return sign * math.MaxFloat64
	case 4:
		return int64(math.MaxInt64 - rng.Intn(4))
	case 5:
		return int64(math.MinInt64 + rng.Intn(4))
	case 6:
		return rng.Int63n(2001) - 1000
	case 7:
		if specials && rng.Intn(4) == 0 {
			return []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
		}
		fallthrough
	default:
		return sign * rng.Float64() * math.Pow(2, float64(rng.Intn(2099)-1075))
	}
}

// foldTree sums vals by splitting at a random point, summing each side
// recursively, and merging in a random direction — one random
// split/merge tree per call.
func foldTree(rng *rand.Rand, vals []Value) *exactSum {
	s := &exactSum{}
	if len(vals) <= 2 || rng.Intn(4) == 0 {
		for _, v := range vals {
			s.add(v)
		}
		return s
	}
	mid := 1 + rng.Intn(len(vals)-1)
	l, r := foldTree(rng, vals[:mid]), foldTree(rng, vals[mid:])
	if rng.Intn(2) == 0 {
		l, r = r, l
	}
	l.merge(r)
	return l
}

// resultOf evaluates both aggregates over one exactSum.
func resultOf(s *exactSum) (sum, avg Value) {
	sa, aa := &sumAcc{s: *s}, &avgAcc{s: *s}
	return sa.result(), aa.result()
}

// TestExactSumMatchesRatOracle: over seeded multisets of edge-case
// inputs, SUM and AVG equal the big.Rat oracle bit for bit under random
// permutations and random split/merge trees.
func TestExactSumMatchesRatOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for set := 0; set < 2000; set++ {
		vals := make([]Value, rng.Intn(40))
		specials := rng.Intn(8) == 0
		for i := range vals {
			vals[i] = randomInput(rng, specials)
			if f, ok := vals[rng.Intn(i+1)].(float64); ok && rng.Intn(4) == 0 {
				vals[i] = -f // cancel an earlier input
			}
		}
		wantSum, wantAvg := oracleSum(vals), oracleAvg(vals)
		for variant := 0; variant < 6; variant++ {
			rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			var s *exactSum
			if variant%2 == 0 {
				s = &exactSum{}
				for _, v := range vals {
					s.add(v)
				}
			} else {
				s = foldTree(rng, vals)
			}
			if gotSum, gotAvg := resultOf(s); !sameValue(gotSum, wantSum) || !sameValue(gotAvg, wantAvg) {
				t.Fatalf("set %d variant %d %v: SUM, AVG = %v, %v; want %v, %v",
					set, variant, vals, gotSum, gotAvg, wantSum, wantAvg)
			}
		}
	}
}

// TestExactSumEdgeCases pins the rounding and overflow rules on inputs
// chosen to hit them exactly.
func TestExactSumEdgeCases(t *testing.T) {
	half := math.Ldexp(1, -53)       // half an ulp of 1
	maxHalfUlp := math.Ldexp(1, 970) // half an ulp of MaxFloat64
	cases := []struct {
		in   []Value
		want Value
	}{
		{[]Value{1e17, 1.0, -1e17}, 1.0},
		{[]Value{1.0, half}, 1.0},                                                      // tie, 1 is even
		{[]Value{1 + 2*half, half}, 1 + 4*half},                                        // tie, rounds up to even
		{[]Value{1.0, half, math.SmallestNonzeroFloat64}, 1 + 2*half},                  // just above the tie
		{[]Value{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64}, math.MaxFloat64}, // no intermediate overflow
		{[]Value{math.MaxFloat64, maxHalfUlp}, math.Inf(1)},                            // tie at the top: overflow
		{[]Value{math.MaxFloat64, maxHalfUlp / 2}, math.MaxFloat64},
		{[]Value{-math.MaxFloat64, -math.MaxFloat64}, math.Inf(-1)},
		{[]Value{math.Inf(1), 1.0, math.Inf(-1)}, math.NaN()},
		{[]Value{math.Inf(-1), math.MaxFloat64, math.MaxFloat64}, math.Inf(-1)},
		{[]Value{math.Copysign(0, -1), math.Copysign(0, -1)}, 0.0},
		{[]Value{int64(math.MaxInt64), int64(math.MaxInt64), 0.5}, math.Ldexp(1, 64)},
		{[]Value{int64(math.MinInt64), int64(math.MinInt64), -1.0}, -math.Ldexp(1, 64)},
		{[]Value{int64(math.MaxInt64), int64(1)}, int64(math.MinInt64)}, // int64-only SUM wraps
		{[]Value{math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64}, 2 * math.SmallestNonzeroFloat64},
	}
	for _, tc := range cases {
		s := &exactSum{}
		for _, v := range tc.in {
			s.add(v)
		}
		if got, _ := resultOf(s); !sameValue(got, tc.want) || !sameValue(got, oracleSum(tc.in)) {
			t.Errorf("SUM%v = %v, want %v (oracle %v)", tc.in, got, tc.want, oracleSum(tc.in))
		}
	}
}
