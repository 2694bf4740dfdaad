package main

import (
	"math"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.req", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "core.b", Start: 20, End: 50}, // overlaps core.a
		{ID: 4, Parent: 1, Name: "store.c", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "store.d", Start: 90, End: 120}, // runs past its parent
		{ID: 6, Parent: 3, Name: "roadnet.e", Start: 25, End: 45},
		{ID: 7, Name: "bench.other", Start: 200, End: 210},
	}
	want := []int64{
		100 - (40 + 10 + 10), // children cover [10,50], [60,70], [90,100]
		20, 30 - 20, 10, 30, 20, 10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}

	tab := layerTable(spans)
	byLayer := map[string]float64{}
	share := 0.0
	for _, r := range tab {
		byLayer[r.Layer] = r.SelfMs * 1e6
		share += r.Share
	}
	for layer, want := range map[string]float64{"bench": 50, "core": 30, "store": 40, "roadnet": 20} {
		if math.Abs(byLayer[layer]-want) > 1e-6 {
			t.Errorf("self time of %s = %gns, want %gns", layer, byLayer[layer], want)
		}
	}
	if math.Abs(share-1) > 1e-9 {
		t.Errorf("shares sum to %g", share)
	}
	if tab[0].Layer != "bench" {
		t.Errorf("table not sorted by self time: %v", tab)
	}
	tot := totalsByName(spans)
	if tot["core.b"].selfNs != 10 || tot["core.b"].spans != 1 {
		t.Errorf("totals %v", tot["core.b"])
	}
}

func TestTracerOff(t *testing.T) {
	tr := newTracer(false)
	id := tr.begin("x.y", 0, "r")
	tr.end(id, 3)
	if id != 0 || len(tr.spans) != 0 {
		t.Errorf("disabled tracer recorded %v", tr.spans)
	}
	tr = newTracer(true)
	p := tr.begin("x.p", 0, "r")
	c := tr.begin("y.c", p, "r")
	tr.end(c, 2)
	tr.end(p, 1)
	if len(tr.spans) != 2 || tr.spans[1].Parent != p || tr.spans[1].N != 2 || tr.spans[0].End < tr.spans[1].End {
		t.Errorf("spans %+v", tr.spans)
	}
}
