package main

// Metric bookkeeping: the reported rows, the name and unit charsets
// the result line must respect, and the percentile rule that every
// reported p99 rests on at least ten samples beyond it.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"

	"sidq/internal/obs"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s may name a metric in the result line.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether s may be a metric unit in the result line.
func validUnit(s string) bool { return unitRE.MatchString(s) }

// row is one reported metric. samples is the number of observations
// behind the value (0 when the value is a single measurement or a
// ratio of counters); it is printed in the human table only.
type row struct {
	name    string
	unit    string
	value   float64
	samples int
}

// report collects the rows of one run in the order they were added.
type report struct {
	rows  []row
	index map[string]int
}

func (r *report) add(name, unit string, value float64, samples int) {
	if !validName(name) || !validUnit(unit) {
		panic(fmt.Sprintf("perfbench: bad metric %q unit %q", name, unit))
	}
	if r.index == nil {
		r.index = map[string]int{}
	}
	if i, ok := r.index[name]; ok {
		r.rows[i] = row{name, unit, value, samples}
		return
	}
	r.index[name] = len(r.rows)
	r.rows = append(r.rows, row{name, unit, value, samples})
}

func (r *report) get(name string) (row, bool) {
	i, ok := r.index[name]
	if !ok {
		return row{}, false
	}
	return r.rows[i], true
}

// printTable writes the rows as an aligned human-readable table.
func (r *report) printTable(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %-36s %16s  %-6s %s\n", "metric", "value", "unit", "samples")
	for _, x := range r.rows {
		n := "-"
		if x.samples > 0 {
			n = fmt.Sprint(x.samples)
		}
		fmt.Fprintf(w, "  %-36s %16.6g  %-6s %s\n", x.name, x.value, x.unit, n)
	}
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON renders the named rows of r as the result line. A name
// with no row is an error: the result line always carries every
// declared metric.
func resultJSON(r *report, names []string, correct bool, attempted, failed int) ([]byte, error) {
	out := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, n := range names {
		x, ok := r.get(n)
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(x.value) || math.IsInf(x.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", n, x.value)
		}
		out.Metrics[n] = jsonMetric{Value: x.value, Unit: x.unit}
	}
	return json.Marshal(out)
}

// minSamples is the fewest observations for which the q-quantile has
// at least ten observations beyond it: 1000 for p99, 20 for p50.
func minSamples(q float64) int {
	return int(math.Ceil(10/(1-q) - 1e-9))
}

// quantileMs returns the q-quantile of a nanosecond histogram in
// milliseconds, or an error when too few samples back it.
func quantileMs(snap obs.HistogramSnapshot, q float64) (float64, error) {
	n := snap.Count()
	if need := minSamples(q); n < uint64(need) {
		return 0, fmt.Errorf("p%g rests on %d samples; at least %d are needed", q*100, n, need)
	}
	return snap.QuantileEst(q) / 1e6, nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// orderQuantile returns the q-quantile of xs as one of its values: the
// k-th smallest, k = floor(q*(n-1)) counting from 0 (0 for none).
func orderQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

// midMean returns the mean of the middle half of xs (the values
// between its quartiles), 0 for none: robust to a few outliers like a
// median, but not confined to the values of quantized samples.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	var sum float64
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
