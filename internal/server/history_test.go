package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/store"
)

// randomChunk is 1-4 events on a 100x100 grid over a 100 s span.
func randomChunk(rng *rand.Rand) []walEvent {
	evs := make([]walEvent, 1+rng.Intn(4))
	for i := range evs {
		evs[i] = walEvent{Src: "s", T: rng.Float64() * 100, X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	return evs
}

// randomQuery is a window of random size, sometimes unbounded on an axis.
func randomQuery(rng *rand.Rand) extent {
	iv := func() (float64, float64) {
		if rng.Intn(8) == 0 {
			return -1e300, 1e300
		}
		lo := rng.Float64()*120 - 10
		return lo, lo + rng.Float64()*40
	}
	x0, x1 := iv()
	y0, y1 := iv()
	t0, t1 := iv()
	return extent{rect: geo.Rect{Min: geo.Pt(x0, y0), Max: geo.Pt(x1, y1)}, minT: t0, maxT: t1}
}

// checkIndexShape verifies the index's own invariants: entries strictly
// ascending by seq, one block per histBlock slots (counting the lead
// of cut slots), and every block summary exactly the union of its
// entries.
func checkIndexShape(t *testing.T, h *historyIndex) {
	t.Helper()
	for i := 1; i < len(h.entries); i++ {
		if h.entries[i-1].seq >= h.entries[i].seq {
			t.Fatalf("entries out of order at %d: seq %d then %d", i, h.entries[i-1].seq, h.entries[i].seq)
		}
	}
	if want := (h.lead + len(h.entries) + histBlock - 1) / histBlock; len(h.blocks) != want {
		t.Fatalf("%d blocks for %d entries with lead %d, want %d", len(h.blocks), len(h.entries), h.lead, want)
	}
	for b := range h.blocks {
		es := h.block(b)
		sum := es[0].extent
		for _, e := range es[1:] {
			sum = sum.union(e.extent)
		}
		if h.blocks[b] != sum {
			t.Fatalf("block %d summary %+v, entries span %+v", b, h.blocks[b], sum)
		}
	}
}

// TestHistoryIndexDifferential: under random out-of-order adds,
// duplicate adds and removeBelow cuts, search equals a brute-force
// filter over the live entries, ascending and without duplicates.
func TestHistoryIndexDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &historyIndex{}
		live := map[uint64]extent{}
		var next, floor uint64 = 1, 1
		for op := 0; op < 1500; op++ {
			switch r := rng.Intn(100); {
			case r < 70: // a seq near the tail: ahead of it, filling a gap, or a duplicate
				seq := next + uint64(rng.Intn(16))
				if seq < floor+8 {
					seq = floor + 8
				}
				seq -= 8
				next = max(next, seq+1)
				evs := randomChunk(rng)
				if _, ok := live[seq]; !ok {
					live[seq] = chunkExtent(evs)
				}
				h.add(seq, evs)
			case r < 73:
				floor += uint64(rng.Intn(150))
				want := 0
				for seq := range live {
					if seq < floor {
						delete(live, seq)
						want++
					}
				}
				if got := h.removeBelow(floor); got != want {
					t.Fatalf("seed %d op %d: removeBelow(%d) removed %d, want %d", seed, op, floor, got, want)
				}
			default:
				q := randomQuery(rng)
				var want []uint64
				for seq, e := range live {
					if e.meets(q) {
						want = append(want, seq)
					}
				}
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				got := h.search(q)
				if len(got) != len(want) {
					t.Fatalf("seed %d op %d: search returned %d seqs, brute force %d", seed, op, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d op %d: search[%d] = %d, brute force %d", seed, op, i, got[i], want[i])
					}
				}
			}
			checkIndexShape(t, h)
		}
	}
}

// TestHistoryIndexHammer: concurrent adds (out of seq order across
// writers), searches and removeBelow cuts. Every search is ascending
// and duplicate-free, and at the end every seq at or above the last
// cut is indexed. Run under -race (make crash does).
func TestHistoryIndexHammer(t *testing.T) {
	const writers, perWriter = 4, 2000
	h := &historyIndex{}
	all := extent{rect: geo.Rect{Min: geo.Pt(-1, -1), Max: geo.Pt(101, 101)}, minT: -1, maxT: 101}
	var wg sync.WaitGroup
	var added atomic.Uint64
	stop := make(chan struct{})
	errs := make(chan string, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				seq := uint64(i*writers + w + 1)
				evs := randomChunk(rng)
				h.add(seq, evs)
				if i%7 == 0 {
					h.add(seq, evs) // a retried persist
				}
				added.Add(1)
			}
		}(w)
	}
	var floor uint64
	var aux sync.WaitGroup
	aux.Add(2)
	go func() { // searcher
		defer aux.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			seqs := h.search(randomQuery(rng))
			for i := 1; i < len(seqs); i++ {
				if seqs[i-1] >= seqs[i] {
					errs <- "search returned seqs out of order or duplicated"
					return
				}
			}
		}
	}()
	go func() { // trimmer: cut at half of what the writers have added
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if f := added.Load() / 2; f > floor {
				h.removeBelow(f)
				floor = f
			}
		}
	}()
	wg.Wait()
	close(stop)
	aux.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	checkIndexShape(t, h)
	got := h.search(all)
	idx := sort.Search(len(got), func(i int) bool { return got[i] >= floor })
	if want := writers*perWriter - int(max(floor, 1)) + 1; len(got)-idx != want {
		t.Fatalf("%d seqs at or above the last cut %d, want %d", len(got)-idx, floor, want)
	}
}

// BenchmarkHistoryRange queries a window matching 16 chunks of one
// probe's track at the tail of a durable log of n chunks, through the
// handler. Index search and WAL read both cost what the window
// returns, so ns/op should stay flat as n grows.
func BenchmarkHistoryRange(b *testing.B) {
	for _, n := range []int{1 << 10, 8 << 10} {
		svc, err := OpenService(Config{
			Logger:     DiscardLogger(),
			Durability: DurabilityConfig{Dir: b.TempDir() + "/wal", Fsync: store.FsyncOff},
		})
		if err != nil {
			b.Fatal(err)
		}
		serve := func(method, url, body string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			svc.ServeHTTP(rec, httptest.NewRequest(method, url, strings.NewReader(body)))
			if rec.Code/100 != 2 {
				b.Fatalf("%s %s: status %d: %s", method, url, rec.Code, rec.Body)
			}
			return rec
		}
		var open struct {
			Session string `json:"session"`
		}
		if err := json.Unmarshal(serve(http.MethodPost, "/v1/stream/open?lateness=0", "").Body.Bytes(), &open); err != nil {
			b.Fatal(err)
		}
		// Chunk c holds 16 points of one probe moving along x, at
		// t = 16c .. 16c+15.
		for c := 0; c < n; c++ {
			var sb strings.Builder
			for i := 0; i < 16; i++ {
				tm := float64(16*c + i)
				sb.WriteString(chunkRow("probe", tm, tm, 0))
			}
			serve(http.MethodPost, "/v1/stream/ingest?session="+open.Session, sb.String())
			if c%64 == 63 {
				serve(http.MethodGet, "/v1/stream/"+open.Session+"/results", "")
			}
		}
		t0 := 16 * (n - 32)
		url := fmt.Sprintf("/v1/history/range?mint=%d&maxt=%d", t0, t0+16*16-1)
		b.Run(fmt.Sprintf("chunks=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := serve(http.MethodGet, url, "").Header().Get("X-Sidq-Chunks"); got != "16" {
					b.Fatalf("window matched %s chunks, want 16", got)
				}
			}
		})
		svc.Close()
	}
}
