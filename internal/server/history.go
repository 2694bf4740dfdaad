package server

// Historical range queries over the durable chunk log:
//
//	GET /v1/history/range?minx=&miny=&maxx=&maxy=&mint=&maxt=
//
// Every persisted ingest chunk is indexed by its spatio-temporal
// extent in a flat, seq-ordered index with one summary box per block
// of entries. A range query scans the summaries for candidate chunks,
// reads exactly the WAL span from the first candidate to the last back
// through the log's seq-range reader, and filters points to the
// requested window. History covers closed and evicted sessions too:
// the log outlives the session state.

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"sidq/internal/geo"
	"sidq/internal/store"
	"sidq/internal/trajectory"
)

// histBlock is how many consecutive index entries share one summary
// box: a search tests the summary first and skips the whole block when
// it misses the window.
const histBlock = 64

// extent is a chunk's spatio-temporal bounding box.
type extent struct {
	rect       geo.Rect
	minT, maxT float64
}

func (e extent) meets(q extent) bool {
	return e.rect.Intersects(q.rect) && e.minT <= q.maxT && e.maxT >= q.minT
}

// holds reports whether the point (x, y) at time t lies inside e.
func (e extent) holds(t, x, y float64) bool {
	return e.rect.Contains(geo.Pt(x, y)) && t >= e.minT && t <= e.maxT
}

func (e extent) union(o extent) extent {
	return extent{
		rect: e.rect.Union(o.rect),
		minT: math.Min(e.minT, o.minT),
		maxT: math.Max(e.maxT, o.maxT),
	}
}

// chunkExtent bounds a non-empty chunk's events.
func chunkExtent(evs []walEvent) extent {
	e := extent{rect: geo.RectFromPoints(geo.Pt(evs[0].X, evs[0].Y)), minT: evs[0].T, maxT: evs[0].T}
	for _, ev := range evs[1:] {
		e.rect = e.rect.ExtendPoint(geo.Pt(ev.X, ev.Y))
		e.minT = math.Min(e.minT, ev.T)
		e.maxT = math.Max(e.maxT, ev.T)
	}
	return e
}

type histEntry struct {
	seq uint64
	extent
}

// historyIndex maps WAL chunk records to their spatio-temporal
// extents: a slice of entries in ascending seq order, plus one summary
// extent per block of histBlock entries. Safe for concurrent use
// (replay is single-threaded, but live ingests on different sessions
// index concurrently).
type historyIndex struct {
	mu      sync.Mutex
	entries []histEntry
	// blocks[b] bounds entries[b*histBlock-lead : (b+1)*histBlock-lead]
	// (clipped to the slice). Blocks stay aligned while removeBelow cuts
	// the front of entries, so lead counts the cut slots of blocks[0].
	blocks []extent
	lead   int
}

// add indexes one chunk record's extent. Idempotent per seq. Records
// usually arrive in seq order, but concurrent sessions can finish
// persisting out of order, so the entry is placed by walking back from
// the tail.
func (h *historyIndex) add(seq uint64, evs []walEvent) {
	if len(evs) == 0 {
		return
	}
	e := histEntry{seq: seq, extent: chunkExtent(evs)}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := len(h.entries)
	for ; i > 0 && h.entries[i-1].seq >= seq; i-- {
		if h.entries[i-1].seq == seq {
			return
		}
	}
	h.entries = append(h.entries, histEntry{})
	copy(h.entries[i+1:], h.entries[i:])
	h.entries[i] = e
	// Entries from i on moved one slot; resummarize their blocks.
	b := (h.lead + i) / histBlock
	h.blocks = h.blocks[:b]
	for ; b*histBlock-h.lead < len(h.entries); b++ {
		h.blocks = append(h.blocks, h.summarize(b))
	}
}

// block returns the entries summarized by blocks[b].
func (h *historyIndex) block(b int) []histEntry {
	lo := max(b*histBlock-h.lead, 0)
	hi := min((b+1)*histBlock-h.lead, len(h.entries))
	return h.entries[lo:hi]
}

func (h *historyIndex) summarize(b int) extent {
	es := h.block(b)
	sum := es[0].extent
	for _, e := range es[1:] {
		sum = sum.union(e.extent)
	}
	return sum
}

// removeBelow drops every entry whose WAL seq is below minSeq —
// called by the retention loop after TruncateFront so the index never
// answers with seqs the disk no longer holds (and so a long-running
// server's index stops growing without bound). Returns how many
// entries were removed.
func (h *historyIndex) removeBelow(minSeq uint64) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	k := sort.Search(len(h.entries), func(i int) bool { return h.entries[i].seq >= minSeq })
	if k == 0 {
		return 0
	}
	h.entries = h.entries[k:]
	h.lead += k
	h.blocks = h.blocks[h.lead/histBlock:]
	h.lead %= histBlock
	if len(h.entries) == 0 {
		h.blocks, h.lead = nil, 0
	} else {
		h.blocks[0] = h.summarize(0)
	}
	return k
}

// search returns the WAL seqs of chunks whose extent intersects the
// window, in seq (= ingestion) order.
func (h *historyIndex) search(q extent) []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var seqs []uint64
	for b, sum := range h.blocks {
		if !sum.meets(q) {
			continue
		}
		for _, e := range h.block(b) {
			if e.meets(q) {
				seqs = append(seqs, e.seq)
			}
		}
	}
	return seqs
}

// readWindow reads the chunk records seqs (ascending) back from the
// WAL with one seq-range read and passes each of their events inside
// q to fn, in seq order. Records in the span that are not in seqs are
// skipped by walking seqs in step with the read; a seq the read never
// reaches (truncated by retention since the search) is passed over.
func readWindow(wal *store.Log, seqs []uint64, q extent, fn func(walEvent) error) error {
	if len(seqs) == 0 {
		return nil
	}
	var h chunkHead
	var srcs []string
	return wal.ReadRange(seqs[0], seqs[len(seqs)-1], func(rec store.Record) error {
		for len(seqs) > 0 && seqs[0] < rec.Seq {
			seqs = seqs[1:]
		}
		if len(seqs) == 0 || seqs[0] != rec.Seq {
			return nil
		}
		switch rec.Type {
		case recChunk:
			return windowChunk(rec.Payload, q, &h, &srcs, fn)
		case recChunk &^ codecV1: // a legacy gob chunk
			var c walChunk
			if err := decodeLegacy(rec.Payload, &c); err != nil {
				return err
			}
			for _, e := range c.Events {
				if q.holds(e.T, e.X, e.Y) {
					if err := fn(e); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
}

// queryFloatAny parses a float query parameter admitting any finite
// value (range bounds are signed coordinates).
func queryFloatAny(r *http.Request, key string, def float64) (float64, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) {
		return 0, &paramError{key: key, value: s}
	}
	return v, nil
}

func (s *Service) handleHistoryRange(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	reg := s.streams
	if reg.wal == nil {
		http.Error(w, "history disabled: start the server with a -data directory", http.StatusNotFound)
		return
	}
	var bounds [6]float64
	for i, p := range []struct {
		key string
		def float64
	}{
		{"minx", math.Inf(-1)}, {"miny", math.Inf(-1)}, {"mint", math.Inf(-1)},
		{"maxx", math.Inf(1)}, {"maxy", math.Inf(1)}, {"maxt", math.Inf(1)},
	} {
		v, err := queryFloatAny(r, p.key, p.def)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		bounds[i] = v
	}
	minX, minY, minT, maxX, maxY, maxT := bounds[0], bounds[1], bounds[2], bounds[3], bounds[4], bounds[5]
	if minX > maxX || minY > maxY || minT > maxT {
		http.Error(w, "empty range: min bound exceeds max", http.StatusBadRequest)
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "ndjson"
	}
	if format != "ndjson" && format != "csv" {
		http.Error(w, (&paramError{key: "format", value: format}).Error(), http.StatusBadRequest)
		return
	}
	q := extent{rect: geo.Rect{Min: geo.Pt(minX, minY), Max: geo.Pt(maxX, maxY)}, minT: minT, maxT: maxT}
	seqs := reg.hist.search(q)
	// X-Sidq-History-Min-Seq is the retained floor: the oldest WAL seq
	// still on disk. A client paging through time can tell "no data"
	// from "data aged out" by comparing it with the chunk seqs it saw.
	w.Header().Set("X-Sidq-Chunks", strconv.Itoa(len(seqs)))
	w.Header().Set("X-Sidq-History-Min-Seq", strconv.FormatUint(reg.wal.FirstSeq(), 10))
	if format == "csv" {
		// CSV stays buffered: WriteCSV needs the rows grouped into
		// per-source trajectories, so the full result set (and the
		// source first-appearance order) must exist before the first
		// output byte. Use ndjson for wide windows.
		var results []streamResult
		var srcs []string
		srcSeen := map[string]bool{}
		err := readWindow(reg.wal, seqs, q, func(e walEvent) error {
			results = append(results, streamResult{Source: e.Src, T: e.T, X: e.X, Y: e.Y})
			if !srcSeen[e.Src] {
				srcSeen[e.Src] = true
				srcs = append(srcs, e.Src)
			}
			return nil
		})
		if err != nil {
			http.Error(w, "history read: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("X-Sidq-Points", strconv.Itoa(len(results)))
		w.Header().Set("Content-Type", "text/csv")
		if err := trajectory.WriteCSV(w, resultTrajectories(results, srcs)); err != nil {
			s.writeError(r, err)
		}
		return
	}

	// ndjson streams: each chunk's matching rows are encoded as
	// ReadRange emits the record, so a wide window holds one decoded
	// chunk in memory, never the whole result set. (That is also why
	// ndjson carries no X-Sidq-Points header — the count is unknown
	// when the headers are sent.)
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	wrote := false
	err := readWindow(reg.wal, seqs, q, func(e walEvent) error {
		if err := enc.Encode(streamResult{Source: e.Src, T: e.T, X: e.X, Y: e.Y}); err != nil {
			return err
		}
		wrote = true
		return nil
	})
	if err != nil {
		if !wrote {
			http.Error(w, "history read: "+err.Error(), http.StatusInternalServerError)
			return
		}
		// Mid-stream failure: the status line is long gone, so report
		// it the way every other streaming handler does.
		s.writeError(r, err)
	}
}
