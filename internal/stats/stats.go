// Package stats provides the graph statistics Kaskade's cost model and
// evaluation rely on: exact degree percentiles (the deg_α of §V-A),
// degree-distribution CCDFs, and log-log least-squares power-law fits
// (used to regenerate Fig. 8).
package stats

import (
	"fmt"
	"math"
	"sort"

	"kaskade/internal/graph"
)

// Percentile returns the α-th percentile (0 < α <= 100) of the sample
// using the nearest-rank method on a sorted copy. It returns 0 for an
// empty sample.
func Percentile(sample []int, alpha float64) int {
	if len(sample) == 0 {
		return 0
	}
	sorted := append([]int(nil), sample...)
	sort.Ints(sorted)
	return percentileSorted(sorted, alpha)
}

func percentileSorted(sorted []int, alpha float64) int {
	if len(sorted) == 0 {
		return 0
	}
	if alpha <= 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(alpha / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// OutDegrees returns the out-degree of every vertex of the given type
// (every vertex when vtype is ""), read from the graph's frozen
// snapshot.
func OutDegrees(g *graph.Graph, vtype string) []int {
	f := g.Freeze()
	if vtype == "" {
		out := make([]int, f.NumVertices())
		for i := range out {
			out[i] = f.OutDegree(graph.VertexID(i))
		}
		return out
	}
	ids := f.VerticesOfType(vtype)
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = f.OutDegree(id)
	}
	return out
}

// DegreeSummary is the coarse-grained out-degree summary Kaskade keeps
// per vertex type (§V-A: the 50th, 90th, and 95th percentile out-degree,
// plus the maximum).
type DegreeSummary struct {
	Type  string // vertex type ("" for the whole graph)
	Count int    // number of vertices
	P50   int
	P90   int
	P95   int
	Max   int
}

// Summarize computes the degree summary of one vertex type ("" for all).
func Summarize(g *graph.Graph, vtype string) DegreeSummary {
	degs := OutDegrees(g, vtype)
	sort.Ints(degs)
	s := DegreeSummary{Type: vtype, Count: len(degs)}
	if len(degs) == 0 {
		return s
	}
	s.P50 = percentileSorted(degs, 50)
	s.P90 = percentileSorted(degs, 90)
	s.P95 = percentileSorted(degs, 95)
	s.Max = degs[len(degs)-1]
	return s
}

// Degree returns the percentile degree out of a summary for the α values
// the cost model supports (50, 90, 95, 100).
func (s DegreeSummary) Degree(alpha int) (int, error) {
	switch alpha {
	case 50:
		return s.P50, nil
	case 90:
		return s.P90, nil
	case 95:
		return s.P95, nil
	case 100:
		return s.Max, nil
	}
	return 0, fmt.Errorf("stats: unsupported percentile α=%d (want 50, 90, 95, or 100)", alpha)
}

// CCDFPoint is one point of a complementary cumulative distribution
// function: Count vertices have degree strictly greater than Degree.
type CCDFPoint struct {
	Degree int
	Count  int
}

// CCDF computes the degree CCDF (the y-axis of Fig. 8: freq. deg > x).
func CCDF(degrees []int) []CCDFPoint {
	if len(degrees) == 0 {
		return nil
	}
	sorted := append([]int(nil), degrees...)
	sort.Ints(sorted)
	var pts []CCDFPoint
	n := len(sorted)
	i := 0
	for i < n {
		d := sorted[i]
		j := i
		for j < n && sorted[j] == d {
			j++
		}
		pts = append(pts, CCDFPoint{Degree: d, Count: n - j})
		i = j
	}
	return pts
}

// PowerLawFit is the result of a least-squares linear fit on the log-log
// CCDF: log10(count) ≈ Intercept + Slope*log10(degree). For a power-law
// degree distribution with exponent γ, the CCDF slope is ≈ -(γ-1).
type PowerLawFit struct {
	Slope     float64
	Intercept float64
	R2        float64 // goodness of linear fit
	Points    int     // points used (degree >= 1, count >= 1)
}

// Gamma returns the implied power-law exponent γ = 1 - slope.
func (f PowerLawFit) Gamma() float64 { return 1 - f.Slope }

// FitPowerLaw fits a line to the log-log CCDF of the degree sample.
func FitPowerLaw(degrees []int) (PowerLawFit, error) {
	pts := CCDF(degrees)
	var xs, ys []float64
	for _, p := range pts {
		if p.Degree >= 1 && p.Count >= 1 {
			xs = append(xs, math.Log10(float64(p.Degree)))
			ys = append(ys, math.Log10(float64(p.Count)))
		}
	}
	if len(xs) < 2 {
		return PowerLawFit{}, fmt.Errorf("stats: not enough points for power-law fit (%d)", len(xs))
	}
	slope, intercept, r2 := linearFit(xs, ys)
	return PowerLawFit{Slope: slope, Intercept: intercept, R2: r2, Points: len(xs)}, nil
}

// linearFit is ordinary least squares y = a + b*x, returning (b, a, R²).
func linearFit(xs, ys []float64) (slope, intercept, r2 float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n, 0
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	// R² = 1 - SSres/SStot.
	var ssRes, ssTot float64
	meanY := sy / n
	for i := range xs {
		pred := intercept + slope*xs[i]
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	if ssTot == 0 {
		return slope, intercept, 1
	}
	return slope, intercept, 1 - ssRes/ssTot
}

// Histogram returns degree -> count of vertices with that degree.
func Histogram(degrees []int) map[int]int {
	h := make(map[int]int)
	for _, d := range degrees {
		h[d]++
	}
	return h
}

// Mean returns the arithmetic mean of the sample (0 for empty).
func Mean(sample []int) float64 {
	if len(sample) == 0 {
		return 0
	}
	var sum int64
	for _, v := range sample {
		sum += int64(v)
	}
	return float64(sum) / float64(len(sample))
}
