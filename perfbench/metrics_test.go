package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"sidq/internal/obs"
)

func TestMinSamples(t *testing.T) {
	for q, want := range map[float64]int{0.5: 20, 0.9: 100, 0.99: 1000, 0.999: 10000} {
		if got := minSamples(q); got != want {
			t.Errorf("minSamples(%g) = %d, want %d", q, got, want)
		}
	}
}

// At its minSeconds, each workload's slowest p99 route gets the
// samples its p99 needs in the open loop, and a shorter run is refused.
func TestMinSeconds(t *testing.T) {
	for name, w := range workloads {
		need := minSeconds(w)
		if got := int(w.p99Rate * need * openLoopShare); got < minSamples(0.99) {
			t.Errorf("%s: --seconds %g gives %d samples", name, need, got)
		}
		if got := int(w.p99Rate * (need - 0.2) * openLoopShare); got >= minSamples(0.99) {
			t.Errorf("%s: --seconds %g would do, minSeconds says %g", name, need-0.2, need)
		}
	}
}

// Every workload BENCHMARK.json declares exists and fits in its
// run_seconds.
func TestBenchmarkJSONWorkloads(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, x := range doc.Workloads {
		w, ok := workloads[x.Name]
		if !ok {
			t.Errorf("workload %s is not implemented", x.Name)
			continue
		}
		if need := minSeconds(w); doc.RunSeconds < need {
			t.Errorf("%s needs --seconds %g; run_seconds is %g", x.Name, need, doc.RunSeconds)
		}
	}
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	var h obs.Histogram
	for i := 0; i < 999; i++ {
		h.Observe(int64(1e6 + i))
	}
	if _, err := quantileMs(h.Snapshot(), 0.99); err == nil {
		t.Fatal("p99 over 999 samples: no error")
	}
	h.Observe(5e6)
	p99, err := quantileMs(h.Snapshot(), 0.99)
	if err != nil {
		t.Fatalf("p99 over 1000 samples: %v", err)
	}
	if p99 < 1 || p99 >= 2.1 {
		t.Errorf("p99 = %gms, want within the [1ms, 2.1ms) bucket", p99)
	}
	if _, err := quantileMs(h.Snapshot(), 0.999); err == nil {
		t.Error("p99.9 over 1000 samples: no error")
	}
}

func TestMetricNameCharset(t *testing.T) {
	good := []string{"setup_s", "a", "0x", "core.stage.kalman-smoothing_us_per_point", strings.Repeat("a", 64)}
	bad := []string{"", "_x", ".x", "-x", "a b", "a/b", "µs", "p99%", strings.Repeat("a", 65)}
	for _, n := range good {
		if !validName(n) {
			t.Errorf("validName(%q) = false", n)
		}
	}
	for _, n := range bad {
		if validName(n) {
			t.Errorf("validName(%q) = true", n)
		}
	}
	for _, u := range []string{"ms", "s", "1/s", "count", "%", "MB", "ratio"} {
		if !validUnit(u) {
			t.Errorf("validUnit(%q) = false", u)
		}
	}
	for _, u := range []string{"", "µs", "m s", strings.Repeat("u", 17)} {
		if validUnit(u) {
			t.Errorf("validUnit(%q) = true", u)
		}
	}
}

// Every declared metric has a valid, unique name and unit.
func TestDeclaredMetrics(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range append(append([]string(nil), e2eNames...), layerNames...) {
		if !validName(n) || seen[n] {
			t.Errorf("metric %q: invalid or repeated", n)
		}
		seen[n] = true
	}
	for _, n := range layerNames {
		if !validUnit(layerUnit(n)) {
			t.Errorf("unit of %s: %q", n, layerUnit(n))
		}
	}
}

func TestResultJSON(t *testing.T) {
	var r report
	r.add("a_ms", "ms", 1.25, 10)
	r.add("b", "count", 3, 0)
	if _, err := resultJSON(&r, []string{"a_ms", "c"}, true, 1, 0); err == nil {
		t.Error("missing metric: no error")
	}
	b, err := resultJSON(&r, []string{"a_ms", "b"}, true, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || string(got["attempted"]) != "7" || string(got["failed"]) != "1" {
		t.Errorf("result line %s", b)
	}
	if !strings.Contains(string(got["metrics"]), `"a_ms":{"value":1.25,"unit":"ms"}`) {
		t.Errorf("metrics %s", got["metrics"])
	}
}

func TestOrderQuantile(t *testing.T) {
	xs := make([]float64, 81)
	for i := range xs {
		xs[i] = float64(80 - i) // 80, 79, ..., 0
	}
	for q, want := range map[float64]float64{0: 0, 0.1: 8, 0.5: 40, 1: 80} {
		if got := orderQuantile(xs, q); got != want {
			t.Errorf("orderQuantile(0..80, %g) = %g, want %g", q, got, want)
		}
	}
	if xs[0] != 80 {
		t.Error("orderQuantile sorted its argument")
	}
	if got := orderQuantile(nil, 0.1); got != 0 {
		t.Errorf("orderQuantile(nil) = %g", got)
	}
}

func TestMidMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{1, 3}, 2},
		{[]float64{100, 1, 2, 3, 4, 5, 6, 7}, 4.5}, // drops 1, 2 and 7, 100
		{[]float64{9, 1, 5, 5, 5}, 5},
	} {
		if got := midMean(c.xs); got != c.want {
			t.Errorf("midMean(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

// Zero-filled per-layer metrics carry the unit the measured ones do.
func TestLayerUnits(t *testing.T) {
	for name, want := range map[string]string{
		"store.replay_share_of_recover": "ratio",
		"store.snapshot_bytes_share":    "ratio",
		"store.bytes_per_event":         "B",
		"uncertain.match_us_per_point":  "us",
		"server.history_ms":             "ms",
		"bench.client_cpu_s":            "s",
		"store.disk_mb":                 "MB",
		"server.shed":                   "count",
	} {
		if got := layerUnit(name); got != want {
			t.Errorf("layerUnit(%s) = %q, want %q", name, got, want)
		}
	}
}
