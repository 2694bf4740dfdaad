package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls once must make the requests due during the
// stall late: their latency from the due time includes the wait, and
// the generator's lag shows it.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 4 {
			time.Sleep(300 * time.Millisecond)
		}
	}))
	defer srv.Close()
	c := newConn()
	defer c.reset()
	run := func(c conn) (int, error) {
		st, _, _, err := doRequest(c, http.MethodGet, srv.URL, nil)
		if err == nil && st != http.StatusOK {
			t.Errorf("status %d", st)
		}
		return 1, err
	}
	var ops []op
	for _, due := range uniform(40, 100) { // one every 10ms
		ops = append(ops, op{due: due, route: "r", run: run})
	}
	ps := runOpenLoop([][]op{ops}, []conn{c}, time.Now())

	rs := ps.route("r")
	if got := rs.n.Load(); got != 40 || rs.failed.Load() != 0 {
		t.Fatalf("ran %d ops, %d failed; want 40, 0", got, rs.failed.Load())
	}
	// The stalled request is due at 30ms and ends near 330ms, so the
	// requests due from 40ms to about 230ms all start over 100ms late:
	// at least a quarter of the 40.
	const late = 100e6
	if lag := ps.lag.Snapshot().QuantileEst(0.75); lag < late {
		t.Errorf("generator lag p75 = %.1fms, want >= 100ms", lag/1e6)
	}
	if d := rs.fromDue.Snapshot().QuantileEst(0.75); d < late {
		t.Errorf("latency from due p75 = %.1fms, want >= 100ms", d/1e6)
	}
	// Only one request was itself slow.
	if s := rs.service.Snapshot().QuantileEst(0.9); s >= late {
		t.Errorf("service time p90 = %.1fms, want < 100ms", s/1e6)
	}
	if ps.elapsed < 390*time.Millisecond {
		t.Errorf("phase took %v, want at least the 390ms schedule", ps.elapsed)
	}
}

func TestUniformSchedule(t *testing.T) {
	d := uniform(5, 200)
	want := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond, 20 * time.Millisecond}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("uniform(5, 200) = %v, want %v", d, want)
		}
	}
}
