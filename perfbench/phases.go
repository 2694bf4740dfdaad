package main

// Phases shared by every workload: spawning for set-up, the measured
// open loop, kill -9 and restart, and the metrics derived from them.

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

const setupSpawns = 81 // setup_s is the lower decile of this many spawns

// setup spawns the server setupSpawns times with args(i) and keeps the
// last one running; setup_s is the lower decile of the times from spawn
// to ready. On a shared VM the neighbours' load comes in spells that
// slow every spawn in them: runs in such a spell read medians up to
// twice those of quiet runs, and lower deciles about a quarter above
// theirs. The lower decile is the set-up cost with the least of that
// load in it, and work added to start-up still moves it.
func (e *env) setup(args func(i int) []string) (*server, error) {
	var ts []float64
	var srv *server
	for i := 0; i < setupSpawns; i++ {
		s, d, err := startServer(e.bin, args(i), e.log, e.a)
		if err != nil {
			return nil, err
		}
		ts = append(ts, d.Seconds())
		if i < setupSpawns-1 {
			s.kill()
			e.a.reset()
			continue
		}
		srv = s
	}
	e.e2e.add("setup_s", "s", orderQuantile(ts, 0.1), len(ts))
	ms := make([]float64, len(ts))
	for i, t := range ts {
		ms[i] = t * 1000
	}
	fmt.Fprintf(os.Stderr, "perfbench: setup samples (ms): %s\n", fmtFloats(ms))
	return srv, nil
}

const recoverCycles = 5 // recover_s is the median of this many restarts

// recoverAfterKill kills srv with SIGKILL and restarts it with the same
// flags, recoverCycles times; recover_s is the median time from the
// kill to ready. afterFirstKill, when set, runs while the first killed
// server is down; its time is not counted.
func (e *env) recoverAfterKill(srv *server, afterFirstKill func() error) (*server, error) {
	var ts []float64
	for i := 0; i < recoverCycles; i++ {
		t0 := time.Now()
		srv.kill()
		killed := time.Since(t0)
		e.a.reset()
		e.b.reset()
		if i == 0 && afterFirstKill != nil {
			if err := afterFirstKill(); err != nil {
				return nil, err
			}
		}
		s, d, err := startServer(e.bin, srv.args, e.log, e.a)
		if err != nil {
			return nil, fmt.Errorf("restart after kill -9: %w", err)
		}
		ts = append(ts, (killed + d).Seconds())
		srv = s
	}
	e.e2e.add("recover_s", "s", median(ts), len(ts))
	fmt.Fprintf(os.Stderr, "perfbench: recover samples (s): %s\n", fmtFloats(ts))
	return srv, nil
}

// openResult is the measured open-loop phase.
type openResult struct {
	ps            *phaseStats
	before, after scrape
	serverCPU     []float64 // server utime+stime at the start and each whole second after, s
	clientCPU     float64   // this process's CPU over the phase, s
	peakRSS       float64   // server VmHWM at the end of the phase, MB
}

// measureOpenLoop runs the open-loop schedules against srv, one per
// connection, with server CPU, memory and metrics taken around it.
func (e *env) measureOpenLoop(srv *server, lanes [][]op) (*openResult, error) {
	r := &openResult{}
	var err error
	if r.before, err = fetchScrape(e.a, srv.base); err != nil {
		return nil, err
	}
	setWindows(lanes)
	c0 := clientCPUSeconds()
	start := time.Now()
	stop := make(chan struct{})
	cpu := sampleCPU(srv.pid(), start, stop)
	r.ps = runOpenLoop(lanes, []conn{e.a, e.b}[:len(lanes)], start)
	close(stop)
	r.clientCPU = clientCPUSeconds() - c0
	if r.serverCPU = <-cpu; r.serverCPU == nil {
		return nil, fmt.Errorf("reading the server's CPU time failed")
	}
	if r.peakRSS, err = procPeakRSSMB(srv.pid()); err != nil {
		return nil, err
	}
	if r.after, err = fetchScrape(e.a, srv.base); err != nil {
		return nil, err
	}
	att, failed := r.ps.totals()
	e.chk.count(att, failed)
	e.chk.addErrs(r.ps.errs)
	return r, nil
}

// reportOpenLoop adds the open-loop metrics: each route's latency
// quantiles, named after the route, and cpu_us_per_event, whose events
// are the input points of writeRoute.
func (e *env) reportOpenLoop(r *openResult, writeRoute string, extra ...string) error {
	for _, route := range append([]string{writeRoute}, extra...) {
		rs := r.ps.route(route)
		snap := rs.fromDue.Snapshot()
		p50, _, err := windowQuantile(rs, 0.50)
		if err != nil {
			return fmt.Errorf("%s: %w", route, err)
		}
		p99, wins, err := windowQuantile(rs, 0.99)
		if err != nil {
			return fmt.Errorf("%s: %w", route, err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s p99 per window (ms): %s\n", route, fmtFloats(wins))
		n := int(snap.Count())
		e.e2e.add(route+"_p50_ms", "ms", p50, n)
		e.e2e.add(route+"_p99_ms", "ms", p99, n)
	}
	// cpu_us_per_event is the mean over the middle half of the phase's
	// seconds, so a burst of load from outside the benchmark moves few of
	// the values it rests on.
	pts := r.ps.pointsPerSecond(writeRoute)
	var perSec []float64
	for i := 0; i+1 < len(r.serverCPU) && i < len(pts); i++ {
		if pts[i] > 0 {
			perSec = append(perSec, (r.serverCPU[i+1]-r.serverCPU[i])*1e6/pts[i])
		}
	}
	e.e2e.add("cpu_us_per_event", "us", midMean(perSec), len(perSec))
	fmt.Fprintf(os.Stderr, "perfbench: server CPU per event, each second (us): %s\n", fmtFloats(perSec))
	e.e2e.add("peak_rss_mb", "MB", r.peakRSS, 0)

	lag := r.ps.lag.Snapshot()
	lagP99, err := quantileMs(lag, 0.99)
	if err != nil {
		return fmt.Errorf("generator lag: %w", err)
	}
	e.layers.add("bench.gen_lag_p99_ms", "ms", lagP99, int(lag.Count()))
	e.layers.add("bench.client_cpu_s", "s", r.clientCPU, 0)
	e.layers.add("server.shed", "count",
		delta(r.before, r.after, "sidq_server_shed_total")+delta(r.before, r.after, "sidq_stream_session_rejected_total"), 0)
	for _, x := range []struct{ metric, route string }{
		{"server.ingest_ms", "/v1/stream/ingest"},
		{"server.results_ms", "/v1/stream/results"},
		{"server.history_ms", "/v1/history/range"},
		{"server.clean_ms", "/v1/clean"},
	} {
		mean, n := histMeanDelta(r.before, r.after, `sidq_server_request_latency_ns{route="`+x.route+`"}`)
		e.layers.add(x.metric, "ms", mean/1e6, int(n))
	}
	serverRoute := map[string]string{routeIngest: "/v1/stream/ingest", routeClean: "/v1/clean"}[writeRoute]
	srvMean, _ := histMeanDelta(r.before, r.after, `sidq_server_request_latency_ns{route="`+serverRoute+`"}`)
	svc := r.ps.route(writeRoute).service.Snapshot()
	clientMean := ratio(float64(svc.Sum), float64(svc.Count()))
	e.layers.add("server.overhead_ms", "ms", (clientMean-srvMean)/1e6, int(svc.Count()))
	return nil
}

// windowQuantile returns the median of a route's per-window
// q-quantiles, in ms, and the window quantiles.
func windowQuantile(rs *routeStats, q float64) (float64, []float64, error) {
	var wins []float64
	for i := range rs.windows {
		snap := rs.windows[i].Snapshot()
		if snap.Count() == 0 {
			break
		}
		p, err := quantileMs(snap, q)
		if err != nil {
			return 0, nil, fmt.Errorf("window %d: %w", i, err)
		}
		wins = append(wins, p)
	}
	if len(wins) == 0 {
		return 0, nil, fmt.Errorf("no samples")
	}
	return median(wins), wins, nil
}

func fmtFloats(xs []float64) string {
	var b []byte
	for i, x := range xs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendFloat(b, x, 'f', 3, 64)
	}
	return string(b)
}

// reportClosedLoop adds points_per_s from a closed-loop phase: the
// mean over the middle half of its whole seconds.
func (e *env) reportClosedLoop(ps *phaseStats, writeRoute string) {
	att, failed := ps.totals()
	e.chk.count(att, failed)
	e.chk.addErrs(ps.errs)
	per := ps.pointsPerSecond(writeRoute)
	e.e2e.add("points_per_s", "1/s", midMean(per), len(per))
	fmt.Fprintf(os.Stderr, "perfbench: closed-loop points per second: %s\n", fmtFloats(per))
}

// sampleCPU reads pid's CPU time at start and at each whole second
// after it until stop is closed, then sends the readings (nil if a
// read failed).
func sampleCPU(pid int, start time.Time, stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var ts []float64
		for k := 0; ; k++ {
			if k > 0 {
				t := time.NewTimer(time.Until(start.Add(time.Duration(k) * time.Second)))
				select {
				case <-stop:
					t.Stop()
					out <- ts
					return
				case <-t.C:
				}
			}
			c, err := procCPUSeconds(pid)
			if err != nil {
				out <- nil
				return
			}
			ts = append(ts, c)
		}
	}()
	return out
}

// finishTrace tabulates the traced run's self time per layer and
// writes its spans out.
func (e *env) finishTrace(t *tracer) error {
	e.table = layerTable(t.spans)
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(e.outDir, fmt.Sprintf("%s-seed%d.jsonl", e.name, e.seed))
	if err := writeSpans(path, t.spans, e.table); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(t.spans), path)
	return nil
}

// timeTraced runs replay untraced, traced, and untraced again, and
// reports bench.trace_overhead as the traced wall time over the mean
// untraced one. It returns the traced run's tracer.
func (e *env) timeTraced(replay func(t *tracer) error) (*tracer, error) {
	var off []float64
	var traced *tracer
	var on float64
	for i := 0; i < 3; i++ {
		t := newTracer(i == 1)
		start := time.Now()
		if err := replay(t); err != nil {
			return nil, err
		}
		d := time.Since(start).Seconds()
		if i == 1 {
			traced, on = t, d
		} else {
			off = append(off, d)
		}
	}
	e.layers.add("bench.trace_overhead", "ratio", on/((off[0]+off[1])/2), 0)
	return traced, nil
}
