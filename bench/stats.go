package main

import (
	"math"
	"sort"
	"time"
)

// numSlices is how many contiguous slices the timed phase is cut into;
// a reported timing is the median over slices and its spread is the
// inter-quartile distance over slices as a share of that median.
const numSlices = 5

// sample is one timed op: its latency, when it ended (ns since the
// timed phase began), and whether it ran through the traced pipeline.
type sample struct {
	lat    int64
	end    int64
	traced bool
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive
// method, the one Python's statistics.quantiles(v, n=4) uses, so a
// spread computed here matches one computed over result files there.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance of vals as a share of their
// median (0 when the median is 0).
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 || len(vals) < 2 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return math.Abs(q3-q1) / math.Abs(m)
}

// estimate is a reported value with the spread of the parts it is the
// median of; slices are those parts when they are the timed phase's
// slices in time order.
type estimate struct {
	value  float64
	spread float64
	slices []float64
}

func overSlices(vals []float64) estimate {
	return estimate{value: median(vals), spread: spread(vals), slices: vals}
}

// timing summarises the timed phase.
type timing struct {
	throughput estimate // ops/s
	p50, p95   estimate // ms
	p99        float64  // ms, over the whole phase: too few samples per slice
	samples    int
}

// summarize cuts samples (any order) into numSlices contiguous slices by
// completion time and reports each metric as the median over slices.
func summarize(samples []sample) timing {
	n := len(samples)
	if n == 0 {
		return timing{}
	}
	byEnd := append([]sample(nil), samples...)
	sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].end < byEnd[j].end })
	slices := numSlices
	if n < slices {
		slices = 1
	}
	var tput, p50, p95 []float64
	prevEnd := byEnd[0].end - byEnd[0].lat // the first op's start
	for s := 0; s < slices; s++ {
		part := byEnd[s*n/slices : (s+1)*n/slices]
		lats := make([]int64, len(part))
		for i, sm := range part {
			lats[i] = sm.lat
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		wall := part[len(part)-1].end - prevEnd
		prevEnd = part[len(part)-1].end
		if wall > 0 {
			tput = append(tput, float64(len(part))/(float64(wall)/float64(time.Second)))
		}
		p50 = append(p50, ms(percentile(lats, 50)))
		p95 = append(p95, ms(percentile(lats, 95)))
	}
	all := make([]int64, n)
	for i, sm := range byEnd {
		all[i] = sm.lat
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return timing{
		throughput: overSlices(tput),
		p50:        overSlices(p50),
		p95:        overSlices(p95),
		p99:        ms(percentile(all, 99)),
		samples:    n,
	}
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

func elapsed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// medianDuration times fn reps times and returns the median.
func medianDuration(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		ds[i] = float64(elapsed(fn))
	}
	return time.Duration(median(ds))
}
