package main

// The open-loop generator. Each connection owns a schedule of
// operations with due times fixed before the phase starts; its
// goroutine sends each operation at its due time, or at once if the
// previous one is still running. Latency is timed from the due time,
// so a stall that delays later requests is charged to them as well,
// and the generator reports how late it sent each request.

import (
	"sync"
	"sync/atomic"
	"time"

	"sidq/internal/obs"
)

// op is one scheduled request. run sends it on the lane's connection
// and returns the number of input points it carried and whether the
// response passed its checks.
type op struct {
	due   time.Duration // offset from the phase start
	route string
	win   int // window of the route's schedule the op falls in (see setWindows)
	run   func(c conn) (points int, err error)
}

// minWindowSamples is the fewest samples a latency window holds: a
// window's p99 then has at least ten samples beyond it.
const minWindowSamples = 1000

// setWindows splits each route's ops, in schedule order, into as many
// equal windows of at least minWindowSamples ops as fit (at least one,
// at most 9). A route's reported p99 is the median of its windows'
// p99s, so one stall of the shared machine moves one window, not the
// result.
func setWindows(lanes [][]op) {
	n := map[string]int{}
	for _, ops := range lanes {
		for _, o := range ops {
			n[o.route]++
		}
	}
	seen := map[string]int{}
	// Windows follow the due time, so walk the lanes merged by due time.
	idx := make([]int, len(lanes))
	for {
		best := -1
		for l, ops := range lanes {
			if idx[l] < len(ops) && (best < 0 || ops[idx[l]].due < lanes[best][idx[best]].due) {
				best = l
			}
		}
		if best < 0 {
			return
		}
		o := &lanes[best][idx[best]]
		k := min(max(n[o.route]/minWindowSamples, 1), 9)
		o.win = seen[o.route] * k / n[o.route]
		seen[o.route]++
		idx[best]++
	}
}

// routeStats accumulates one route's observations in a phase.
type routeStats struct {
	fromDue obs.Histogram    // completion - due time, ns
	windows [9]obs.Histogram // fromDue split by op.win
	service obs.Histogram    // completion - send time, ns
	n       atomic.Int64
	failed  atomic.Int64
	points  atomic.Int64 // input points carried by successful requests
}

// phaseStats is the outcome of one phase.
type phaseStats struct {
	mu      sync.Mutex
	routes  map[string]*routeStats
	lag     obs.Histogram // send - due time, ns (0 when on time)
	elapsed time.Duration
	errs    []string // first few failures, for the log
	start   time.Time
	acks    []ack // every completed request, in completion order
}

// ack is one completed request.
type ack struct {
	at     time.Duration // completion, from the phase start
	route  string
	points int
}

func newPhaseStats(start time.Time) *phaseStats {
	return &phaseStats{routes: map[string]*routeStats{}, start: start}
}

func (p *phaseStats) route(name string) *routeStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.routes[name]
	if r == nil {
		r = &routeStats{}
		p.routes[name] = r
	}
	return r
}

func (p *phaseStats) fail(route string, err error) {
	p.route(route).failed.Add(1)
	p.mu.Lock()
	if len(p.errs) < 5 {
		p.errs = append(p.errs, route+": "+err.Error())
	}
	p.mu.Unlock()
}

// totals sums attempted and failed requests over every route.
func (p *phaseStats) totals() (attempted, failed int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.routes {
		attempted += int(r.n.Load())
		failed += int(r.failed.Load())
	}
	return attempted, failed
}

// record runs o on c at or after its absolute due time and records
// its outcome.
func (p *phaseStats) record(o op, c conn, due time.Time) {
	rs := p.route(o.route)
	sent := time.Now()
	if lag := sent.Sub(due); lag > 0 {
		p.lag.Observe(lag.Nanoseconds())
	} else {
		p.lag.Observe(0)
	}
	pts, err := o.run(c)
	done := time.Now()
	rs.n.Add(1)
	rs.fromDue.Observe(done.Sub(due).Nanoseconds())
	rs.windows[o.win].Observe(done.Sub(due).Nanoseconds())
	rs.service.Observe(done.Sub(sent).Nanoseconds())
	if err != nil {
		p.fail(o.route, err)
		pts = 0
	} else {
		rs.points.Add(int64(pts))
	}
	p.mu.Lock()
	p.acks = append(p.acks, ack{done.Sub(p.start), o.route, pts})
	p.mu.Unlock()
}

// runOpenLoop runs one schedule per connection, lanes[i] on conns[i],
// from start, and returns when every operation has completed.
func runOpenLoop(lanes [][]op, conns []conn, start time.Time) *phaseStats {
	ps := newPhaseStats(start)
	var wg sync.WaitGroup
	for i := range lanes {
		wg.Add(1)
		go func(ops []op, c conn) {
			defer wg.Done()
			for _, o := range ops {
				due := start.Add(o.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				ps.record(o, c, due)
			}
		}(lanes[i], conns[i])
	}
	wg.Wait()
	ps.elapsed = time.Since(start)
	return ps
}

// runClosedLoop calls next on every connection in its own goroutine:
// each connection sends its next request as soon as the previous one
// completes, until d has passed. next(i, k) returns connection i's
// k-th operation. elapsed runs to the last completion.
func runClosedLoop(d time.Duration, conns []conn, next func(lane, k int) op) *phaseStats {
	start := time.Now()
	ps := newPhaseStats(start)
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; time.Since(start) < d; k++ {
				ps.record(next(i, k), conns[i], time.Now())
			}
		}(i)
	}
	wg.Wait()
	ps.elapsed = time.Since(start)
	return ps
}

// pointsPerSecond returns, for each whole second of the phase, the
// input points of route's requests that completed in it.
func (p *phaseStats) pointsPerSecond(route string) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	per := make([]float64, int(p.elapsed/time.Second))
	for _, a := range p.acks {
		if w := int(a.at / time.Second); a.route == route && w < len(per) {
			per[w] += float64(a.points)
		}
	}
	return per
}

// uniform returns n due times at a fixed rate (per second) from 0.
func uniform(n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}
