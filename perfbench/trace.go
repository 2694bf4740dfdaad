package main

// Spans for the traced run. The traced run replays a workload's
// seeded inputs in this process through each module's public
// functions, with a span around every call into a layer. Spans are
// kept in memory and written as JSONL when the run ends, with a table
// of per-layer self time: a span's duration minus the part of it that
// its child spans cover.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call. Times are nanoseconds since the tracer
// started; N counts the items the call covered (points, records...).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n"`
}

// layer is the module a span belongs to: its name up to the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer records spans from one goroutine. A disabled tracer records
// nothing, which is how the same replay code runs untraced.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent int64, req string) int64 {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans) + 1), Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	return int64(len(t.spans))
}

// end closes span id, recording that it covered n items.
func (t *tracer) end(id int64, n int) {
	if !t.on || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.N = n
}

// addDone records a span that has already finished, given its
// duration and end time, covering n items.
func (t *tracer) addDone(name string, parent int64, req string, d time.Duration, end time.Time, n int) {
	if !t.on {
		return
	}
	e := int64(end.Sub(t.t0))
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans) + 1), Parent: parent, Req: req, Name: name,
		Start: e - int64(d), End: e, N: n,
	})
}

// selfTimes returns each span's self time in ns, indexed like spans:
// its duration minus the union of its children's intervals clipped to
// it.
func selfTimes(spans []span) []int64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	cl := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			cl = append(cl, [2]int64{a, b})
		}
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i][0] < cl[j][0] })
	var total, curA, curB int64
	for i, iv := range cl {
		if i == 0 || iv[0] > curB {
			total += curB - curA
			curA, curB = iv[0], iv[1]
			continue
		}
		curB = max(curB, iv[1])
	}
	return total + curB - curA
}

// nameTotals sums self time (ns) and items per span name.
type nameTotal struct {
	selfNs int64
	n      int
	spans  int
}

func totalsByName(spans []span) map[string]nameTotal {
	self := selfTimes(spans)
	out := map[string]nameTotal{}
	for i, s := range spans {
		t := out[s.Name]
		t.selfNs += self[i]
		t.n += s.N
		t.spans++
		out[s.Name] = t
	}
	return out
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

// layerTable sums self time per layer, largest first.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	by := map[string]*layerRow{}
	var total int64
	for i, s := range spans {
		r := by[s.layer()]
		if r == nil {
			r = &layerRow{Layer: s.layer()}
			by[s.layer()] = r
		}
		r.Spans++
		r.SelfMs += float64(self[i]) / 1e6
		total += self[i]
	}
	var out []layerRow
	for _, r := range by {
		r.Share = ratio(r.SelfMs, float64(total)/1e6)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMs != out[j].SelfMs {
			return out[i].SelfMs > out[j].SelfMs
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

func printLayerTable(w io.Writer, title string, rows []layerRow) {
	fmt.Fprintf(w, "%s\n  %-12s %8s %12s %7s\n", title, "layer", "spans", "self_ms", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %8d %12.3f %6.1f%%\n", r.Layer, r.Spans, r.SelfMs, 100*r.Share)
	}
}

// writeSpans writes one JSON object per span, then one per layer-table
// row (marked by its "layer" key), to path.
func writeSpans(path string, spans []span, table []layerRow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, r := range table {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
