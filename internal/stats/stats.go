// Package stats provides the statistical building blocks shared by the
// sidq quality-management and exploitation packages: descriptive
// statistics, robust estimators, online (streaming) accumulators,
// Gaussian density helpers, and a tiny dense-matrix type for small
// least-squares solves.
//
// Everything in this package is deterministic given the caller's
// *rand.Rand; no package-level randomness is used.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by estimators that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 if len < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// RMS returns the root mean square of xs, or 0 for empty input.
func RMS(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x * x
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It copies and sorts xs.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the median of xs.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// MedianInPlace returns the median of xs, sorting xs itself instead of
// a copy — the allocation-free variant for hot loops that own a
// scratch buffer.
func MedianInPlace(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sort.Float64s(xs)
	return quantileSorted(xs, 0.5), nil
}

// MAD returns the median absolute deviation of xs, scaled by 1.4826 so
// that it estimates the standard deviation for Gaussian data.
func MAD(xs []float64) (float64, error) {
	med, err := Median(xs)
	if err != nil {
		return 0, err
	}
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	m, err := Median(dev)
	if err != nil {
		return 0, err
	}
	return 1.4826 * m, nil
}

// Covariance returns the unbiased sample covariance of xs and ys, which
// must have equal length (0 if len < 2).
func Covariance(xs, ys []float64) float64 {
	n := len(xs)
	if n < 2 || n != len(ys) {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var s float64
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(n-1)
}

// Correlation returns the Pearson correlation of xs and ys, or 0 when
// either series is constant.
func Correlation(xs, ys []float64) float64 {
	sx, sy := StdDev(xs), StdDev(ys)
	if sx == 0 || sy == 0 {
		return 0
	}
	return Covariance(xs, ys) / (sx * sy)
}

// NormalPDF returns the density of N(mu, sigma^2) at x.
func NormalPDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		return 0
	}
	z := (x - mu) / sigma
	return math.Exp(-0.5*z*z) / (sigma * math.Sqrt(2*math.Pi))
}

// NormalCDF returns the cumulative distribution of N(mu, sigma^2) at x.
func NormalCDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		if x < mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}

// LogNormalPDF returns log(NormalPDF(x, mu, sigma)) computed stably.
func LogNormalPDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		return math.Inf(-1)
	}
	z := (x - mu) / sigma
	return -0.5*z*z - math.Log(sigma) - 0.5*math.Log(2*math.Pi)
}

// Online accumulates streaming mean and variance using Welford's
// algorithm. The zero value is ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of samples folded in.
func (o *Online) N() int { return o.n }

// Mean returns the running mean (0 if empty).
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the running unbiased variance (0 if n < 2).
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// StdDev returns the running standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Min returns the minimum seen (0 if empty).
func (o *Online) Min() float64 { return o.min }

// Max returns the maximum seen (0 if empty).
func (o *Online) Max() float64 { return o.max }

// Histogram is a fixed-range equi-width histogram.
type Histogram struct {
	lo, hi float64
	counts []int
	total  int
	under  int
	over   int
}

// NewHistogram returns a histogram over [lo, hi) with n bins.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n < 1 || hi <= lo {
		n = 1
		hi = lo + 1
	}
	return &Histogram{lo: lo, hi: hi, counts: make([]int, n)}
}

// Add records x. Values outside [lo, hi) are counted as under/overflow.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		i := int(float64(len(h.counts)) * (x - h.lo) / (h.hi - h.lo))
		if i == len(h.counts) { // guard FP edge
			i--
		}
		h.counts[i]++
	}
}

// Total returns the total number of samples added, including overflow.
func (h *Histogram) Total() int { return h.total }

// Counts returns a copy of the per-bin counts.
func (h *Histogram) Counts() []int { return append([]int(nil), h.counts...) }

// Entropy returns the Shannon entropy (nats) of the in-range bin
// distribution; 0 for an empty histogram.
func (h *Histogram) Entropy() float64 {
	in := h.total - h.under - h.over
	if in == 0 {
		return 0
	}
	var e float64
	for _, c := range h.counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(in)
		e -= p * math.Log(p)
	}
	return e
}
