package main

// The streaming workloads. stream-durable runs the production write
// path against a durable server and reads history beside it;
// stream-match runs online map matching against a memory-only server
// given the feed's own city.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"sidq/internal/geo"
	"sidq/internal/roadnet"
	"sidq/internal/simulate"
)

const (
	routeIngest  = "ingest"
	routeResults = "results"
	routeHistory = "history"
	routeClean   = "clean"

	chunkPoints = 64 // points per ingest chunk
	drainEvery  = 4  // a session drains /results after every 4 chunks
	maxSpeed    = 30 // speed gate of every session and of /v1/clean, m/s
)

// streamShape sizes a streaming workload.
type streamShape struct {
	sessions    int     // open-loop sessions
	opsPerSec   float64 // open-loop ingest+drain operations per second per connection
	historyRate float64 // history queries per second on connection B (0: none)
	splitConns  bool    // sessions alternate between both connections
}

var (
	durableShape = streamShape{sessions: 4, opsPerSec: 80, historyRate: 45}
	matchShape   = streamShape{sessions: 4, opsPerSec: 400, splitConns: true}
)

// p99Rate is the open-loop rate of the shape's slowest route with a
// reported p99: ingest acks or history queries, per second.
func (sh streamShape) p99Rate() float64 {
	lanes := 1.0
	if sh.splitConns {
		lanes = 2
	}
	r := sh.opsPerSec * lanes * drainEvery / (drainEvery + 1)
	if sh.historyRate > 0 {
		r = min(r, sh.historyRate)
	}
	return r
}

// session is one streaming session as the client tracks it. Each
// session lives on one connection, so one goroutine touches it at a
// time.
type session struct {
	id      string
	feed    *simulate.Replay
	stream  int // feed stream index (source-id namespace)
	chunks  int // chunks acked
	sent    int // points acked
	drained int // result rows received
}

// ackedChunk names one chunk the server acknowledged.
type ackedChunk struct {
	s     *session
	chunk int
}

func openSession(c conn, base string, feed *simulate.Replay, stream int) (*session, error) {
	st, _, body, err := doRequest(c, http.MethodPost, fmt.Sprintf("%s/v1/stream/open?maxspeed=%d&lanes=4", base, maxSpeed), nil)
	if err != nil {
		return nil, err
	}
	if st != http.StatusCreated {
		return nil, fmt.Errorf("open session: status %d: %s", st, body)
	}
	var ack struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.Session == "" {
		return nil, fmt.Errorf("open session: bad ack %q", body)
	}
	return &session{id: ack.Session, feed: feed, stream: stream}, nil
}

// ingestOp sends chunk k of the session's stream. onAck, when set,
// runs after a good ack.
func ingestOp(base string, s *session, k int, onAck func()) func(c conn) (int, error) {
	body := s.feed.AppendChunk(nil, s.stream, k, chunkPoints)
	u := fmt.Sprintf("%s/v1/stream/ingest?session=%s&seq=%d", base, s.id, k+1)
	return func(c conn) (int, error) {
		st, _, b, err := doRequest(c, http.MethodPost, u, body)
		if err != nil {
			return 0, err
		}
		if st != http.StatusOK {
			return 0, fmt.Errorf("status %d: %s", st, bytes.TrimSpace(b))
		}
		var ack struct {
			Ingested  int  `json:"ingested"`
			Duplicate bool `json:"duplicate"`
		}
		if err := json.Unmarshal(b, &ack); err != nil {
			return 0, fmt.Errorf("ack: %w", err)
		}
		if ack.Ingested != chunkPoints || ack.Duplicate {
			return 0, fmt.Errorf("ack for chunk %d: ingested %d duplicate %v", k, ack.Ingested, ack.Duplicate)
		}
		s.chunks++
		s.sent += chunkPoints
		if onAck != nil {
			onAck()
		}
		return chunkPoints, nil
	}
}

// drainOp drains the session's results; with flush, the session's
// reorder buffers and matcher lag are flushed first.
func drainOp(base string, s *session, flush bool) func(c conn) (int, error) {
	u := base + "/v1/stream/" + s.id + "/results"
	if flush {
		u += "?flush=1"
	}
	return func(c conn) (int, error) {
		st, h, b, err := doRequest(c, http.MethodGet, u, nil)
		if err != nil {
			return 0, err
		}
		if st != http.StatusOK {
			return 0, fmt.Errorf("status %d: %s", st, bytes.TrimSpace(b))
		}
		rows := bytes.Count(b, []byte{'\n'})
		if hd := h.Get("X-Sidq-Drained"); hd != strconv.Itoa(rows) {
			return 0, fmt.Errorf("drained %d rows, header says %s", rows, hd)
		}
		s.drained += rows
		return 0, nil
	}
}

// streamSchedule builds the open-loop ingest+drain schedules: per
// session, drainEvery chunks then one drain, round-robin over the
// sessions of each connection, at shape.opsPerSec per connection.
func streamSchedule(base string, sh streamShape, sess []*session, secs float64, onAck func(*session, int)) [][]op {
	lanes := 1
	if sh.splitConns {
		lanes = 2
	}
	out := make([][]op, lanes)
	for l := 0; l < lanes; l++ {
		var mine []*session
		for i, s := range sess {
			if i%lanes == l {
				mine = append(mine, s)
			}
		}
		dues := uniform(int(sh.opsPerSec*secs), sh.opsPerSec)
		next := make([]int, len(mine)) // next chunk per session
		for j, due := range dues {
			si := j % len(mine)
			s := mine[si]
			round := j / len(mine)
			if round%(drainEvery+1) == drainEvery {
				out[l] = append(out[l], op{due: due, route: routeResults, run: drainOp(base, s, false)})
				continue
			}
			k := next[si]
			next[si]++
			var cb func()
			if onAck != nil {
				cb = func() { onAck(s, k) }
			}
			out[l] = append(out[l], op{due: due, route: routeIngest, run: ingestOp(base, s, k, cb)})
		}
	}
	return out
}

// checkSessions flushes, drains and closes every session and checks
// its summary: every point sent was ingested, nothing was dropped,
// every ingested point was emitted, judged an outlier or late, and
// the rows drained equal the rows emitted.
func (e *env) checkSessions(c conn, base string, sess []*session) {
	for _, s := range sess {
		if _, err := drainOp(base, s, true)(c); err != nil {
			e.chk.check(false, "session %s: final drain: %v", s.id, err)
			continue
		}
		st, _, b, err := doRequest(c, http.MethodDelete, base+"/v1/stream/"+s.id, nil)
		if err != nil || st != http.StatusOK {
			e.chk.check(false, "session %s: close: status %d err %v", s.id, st, err)
			continue
		}
		var sum struct{ Ingested, Emitted, Late, Outliers, Dropped int }
		if err := json.Unmarshal(b, &sum); err != nil {
			e.chk.check(false, "session %s: summary: %v", s.id, err)
			continue
		}
		e.chk.check(sum.Ingested == s.sent, "session %s: ingested %d, sent %d", s.id, sum.Ingested, s.sent)
		e.chk.check(sum.Dropped == 0, "session %s: dropped %d", s.id, sum.Dropped)
		e.chk.check(sum.Emitted+sum.Outliers+sum.Late == sum.Ingested,
			"session %s: emitted %d + outliers %d + late %d != ingested %d", s.id, sum.Emitted, sum.Outliers, sum.Late, sum.Ingested)
		e.chk.check(s.drained == sum.Emitted, "session %s: drained %d rows, emitted %d", s.id, s.drained, sum.Emitted)
	}
}

// streamClosedLoop opens fresh sessions on the open loop's feeds, split
// over both connections, ingests as fast as each connection allows
// (draining every drainEvery chunks), then checks the sessions and
// reports points_per_s.
func (e *env) streamClosedLoop(srv *server, feeds []*simulate.Replay) error {
	var sess []*session
	for i, f := range feeds {
		s, err := openSession(e.a, srv.base, f, 1000+i)
		if err != nil {
			return err
		}
		sess = append(sess, s)
	}
	chunks := make([]int, len(sess))
	ops := make([]int, len(sess))
	ps := runClosedLoop(time.Duration(e.closedLoopSeconds()*float64(time.Second)), []conn{e.a, e.b}, func(lane, k int) op {
		// Connection lane serves sessions lane, lane+2, ... in turn.
		per := (len(sess) - lane + 1) / 2
		si := lane + 2*(k%per)
		s := sess[si]
		ops[si]++
		if ops[si]%(drainEvery+1) == 0 {
			return op{route: routeResults, run: drainOp(srv.base, s, false)}
		}
		ck := chunks[si]
		chunks[si]++
		return op{route: routeIngest, run: ingestOp(srv.base, s, ck, nil)}
	})
	e.reportClosedLoop(ps, routeIngest)
	e.checkSessions(e.a, srv.base, sess)
	return nil
}

// reportStreamScrape adds the stream-layer counters of the open loop.
func (e *env) reportStreamScrape(r *openResult) {
	ing := delta(r.before, r.after, `sidq_stream_session_events_total{kind="ingested"}`)
	e.layers.add("stream.late_ratio", "ratio", ratio(delta(r.before, r.after, `sidq_stream_session_events_total{kind="late"}`), ing), 0)
	e.layers.add("stream.accept_ratio", "ratio", ratio(delta(r.before, r.after, `sidq_stream_session_events_total{kind="emitted"}`), ing), 0)
	chunks := float64(r.ps.route(routeIngest).n.Load())
	e.layers.add("stream.snapshots_per_kchunk", "count", 1000*ratio(delta(r.before, r.after, "sidq_stream_snapshots_total"), chunks), 0)
	e.layers.add("roadnet.heap_pops_per_point", "count", ratio(delta(r.before, r.after, "sidq_roadnet_heap_pops_total"), ing), 0)
	e.layers.add("roadnet.many_sweeps_per_point", "count", ratio(delta(r.before, r.after, "sidq_roadnet_many_sweeps_total"), ing), 0)
	hits := delta(r.before, r.after, "sidq_roadnet_route_cache_hits_total")
	miss := delta(r.before, r.after, "sidq_roadnet_route_cache_misses_total")
	e.layers.add("roadnet.cache_hit_ratio", "ratio", ratio(hits, hits+miss), 0)
	e.layers.add("store.bytes_per_event", "B", ratio(delta(r.before, r.after, "sidq_store_append_bytes_total"), ing), 0)
	fs, _ := histMeanDelta(r.before, r.after, "sidq_store_fsync_ns")
	e.layers.add("store.fsync_ms", "ms", fs/1e6, int(delta(r.before, r.after, "sidq_store_fsync_ns_count")))
	e.layers.add("store.fsyncs_per_kappend", "count",
		1000*ratio(delta(r.before, r.after, "sidq_store_fsyncs_total"), delta(r.before, r.after, "sidq_store_appends_total")), 0)
	e.layers.add("store.disk_mb", "MB", r.after["sidq_store_disk_bytes"]/(1<<20), 0)
}

// --- stream-durable ------------------------------------------------

func runStreamDurable(e *env) error {
	// Each session replays its own feed, so one run averages over more
	// trajectories than one feed's four.
	feeds := make([]*simulate.Replay, durableShape.sessions)
	for i := range feeds {
		feeds[i] = simulate.NewReplay(simulate.ReplayOptions{Seed: e.seed*16 + int64(i)})
	}
	var dataDir string
	srv, err := e.setup(func(i int) []string {
		dataDir = filepath.Join(e.dir, fmt.Sprintf("data-%d", i))
		return []string{"-data", dataDir}
	})
	if err != nil {
		return err
	}
	defer func() { srv.kill() }()
	sess := make([]*session, durableShape.sessions)
	for i := range sess {
		if sess[i], err = openSession(e.a, srv.base, feeds[i], i); err != nil {
			return err
		}
	}
	secs := e.openLoopSeconds()
	var acked []ackedChunk
	lanes := streamSchedule(srv.base, durableShape, sess, secs, func(s *session, k int) {
		acked = append(acked, ackedChunk{s, k})
	})
	lanes = append(lanes, historySchedule(srv.base, feeds, e.seed, secs, durableShape))
	r, err := e.measureOpenLoop(srv, lanes)
	if err != nil {
		return err
	}
	if err := e.reportOpenLoop(r, routeIngest, routeHistory); err != nil {
		return err
	}
	e.reportStreamScrape(r)

	// Under -fsync batch an ack precedes its fsync by up to one flush
	// interval. Wait for the log to be flushed past the last ack before
	// the kill, so the crash loses nothing the checks expect.
	if err := waitFlushed(e.a, srv.base); err != nil {
		return err
	}
	walCopy := filepath.Join(e.dir, "wal-copy")
	srv, err = e.recoverAfterKill(srv, func() error {
		if !e.trace {
			return nil
		}
		return copyDir(dataDir, walCopy)
	})
	if err != nil {
		return err
	}
	e.checkSessions(e.a, srv.base, sess)
	e.checkHistory(srv.base, feeds, acked)
	if err := e.streamClosedLoop(srv, feeds); err != nil {
		return err
	}
	srv.stop()
	if !e.trace {
		return nil
	}
	return e.traceStream(nil, sess, walCopy)
}

// historySchedule issues seeded /v1/history/range windows on
// connection B: a quarter of the feeds' extent on each axis, over a
// 64 s event-time span placed anywhere in the event time ingested so
// far.
func historySchedule(base string, feeds []*simulate.Replay, seed int64, secs float64, sh streamShape) []op {
	rng := rand.New(rand.NewSource(seed*31 + 7))
	dues := uniform(int(sh.historyRate*secs), sh.historyRate)
	// Each session advances by chunkPoints/sources samples of one
	// second per chunk, and gets drainEvery of every drainEvery+1 ops.
	evPerSec := sh.opsPerSec / float64(sh.sessions) * drainEvery / (drainEvery + 1) * chunkPoints / float64(feeds[0].Sources())
	ext := extent(feeds)
	out := make([]op, 0, len(dues))
	for _, due := range dues {
		frontier := due.Seconds() * evPerSec
		w := randomWindow(rng, ext, frontier, 64)
		u := base + "/v1/history/range?" + w.query()
		out = append(out, op{due: due, route: routeHistory, run: func(c conn) (int, error) {
			st, _, b, err := doRequest(c, http.MethodGet, u, nil)
			if err != nil {
				return 0, err
			}
			if st != http.StatusOK {
				return 0, fmt.Errorf("status %d: %s", st, bytes.TrimSpace(b))
			}
			return 0, nil
		}})
	}
	return out
}

// extent is the union of the feeds' extents.
func extent(feeds []*simulate.Replay) geo.Rect {
	r := feeds[0].Extent()
	for _, f := range feeds[1:] {
		r = r.ExtendPoint(f.Extent().Min).ExtendPoint(f.Extent().Max)
	}
	return r
}

// window is a spatio-temporal query box.
type window struct{ minX, minY, minT, maxX, maxY, maxT float64 }

func randomWindow(rng *rand.Rand, ext geo.Rect, frontier, span float64) window {
	w, h := ext.Width()/4, ext.Height()/4
	x0 := ext.Min.X + rng.Float64()*(ext.Width()-w)
	y0 := ext.Min.Y + rng.Float64()*(ext.Height()-h)
	t0 := rng.Float64() * frontier
	return window{x0, y0, t0, x0 + w, y0 + h, t0 + span}
}

func (w window) query() string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	q := url.Values{}
	q.Set("minx", f(w.minX))
	q.Set("miny", f(w.minY))
	q.Set("mint", f(w.minT))
	q.Set("maxx", f(w.maxX))
	q.Set("maxy", f(w.maxY))
	q.Set("maxt", f(w.maxT))
	return q.Encode()
}

func (w window) contains(p simulate.ReplayPoint) bool {
	return p.X >= w.minX && p.X <= w.maxX && p.Y >= w.minY && p.Y <= w.maxY && p.T >= w.minT && p.T <= w.maxT
}

// checkHistory compares a few windows over all the event time ingested
// with a brute-force filter over every acked chunk, in ack order
// (which is WAL order: every chunk was sent on one connection).
func (e *env) checkHistory(base string, feeds []*simulate.Replay, acked []ackedChunk) {
	rng := rand.New(rand.NewSource(e.seed*17 + 3))
	ext := extent(feeds)
	var frontier float64
	for _, a := range acked {
		pts := a.s.feed.Points(a.s.stream, a.chunk, chunkPoints)
		if t := pts[len(pts)-1].T; t > frontier {
			frontier = t
		}
	}
	for i, tries := 0, 0; i < 4 && tries < 100; tries++ {
		w := randomWindow(rng, ext, frontier*0.8, frontier*0.2)
		var want []simulate.ReplayPoint
		for _, a := range acked {
			for _, p := range a.s.feed.Points(a.s.stream, a.chunk, chunkPoints) {
				if w.contains(p) {
					want = append(want, p)
				}
			}
		}
		if len(want) == 0 {
			continue // an empty window checks nothing
		}
		i++
		st, _, b, err := doRequest(e.a, http.MethodGet, base+"/v1/history/range?"+w.query(), nil)
		if err != nil || st != http.StatusOK {
			e.chk.check(false, "history window %d: status %d err %v", i, st, err)
			continue
		}
		got, err := parseRows(b)
		if err != nil {
			e.chk.check(false, "history window %d: %v", i, err)
			continue
		}
		ok := len(got) == len(want)
		for j := 0; ok && j < len(got); j++ {
			ok = got[j] == want[j]
		}
		e.chk.check(ok, "history window %d: %d rows, brute force over acked chunks gives %d", i, len(got), len(want))
	}
}

func parseRows(b []byte) ([]simulate.ReplayPoint, error) {
	var out []simulate.ReplayPoint
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var r struct {
			Source  string
			T, X, Y float64
		}
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, err
		}
		out = append(out, simulate.ReplayPoint{Source: r.Source, T: r.T, X: r.X, Y: r.Y})
	}
	return out, sc.Err()
}

// waitFlushed waits until sidq_store_fsyncs_total has held still for
// four flush intervals of the batch mode (25ms). The background
// flusher syncs every interval in which the log is dirty, so a counter
// that stops moving for that long means every acked record, and every
// record appended before the last ack, is on disk.
func waitFlushed(c conn, base string) error {
	last, still := -1.0, time.Now()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s, err := fetchScrape(c, base)
		if err != nil {
			return err
		}
		if f := s["sidq_store_fsyncs_total"]; f != last {
			last, still = f, time.Now()
		} else if time.Since(still) >= 100*time.Millisecond {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("WAL still syncing 10s after the last ack")
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, en := range ents {
		if !en.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, en.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, en.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// --- stream-match --------------------------------------------------

// feedCity rebuilds the city simulate.Replay draws its trips on, from
// the same options and seed (ReplayOptions defaults: an 8x8 grid).
func feedCity(seed int64) *roadnet.Graph {
	return roadnet.GridCity(roadnet.GridCityOptions{
		NX: 8, NY: 8, Spacing: 120, Jitter: 8, RemoveFrac: 0.2, Seed: seed,
	})
}

func runStreamMatch(e *env) error {
	// Every session needs the one city the server was given, so the
	// sessions share a feed; 16 sources per feed put more trajectories
	// through the matcher in one run than the default four.
	feed := simulate.NewReplay(simulate.ReplayOptions{Seed: e.seed, Sources: 16})
	city := feedCity(e.seed)
	cityPath := filepath.Join(e.dir, "city.csv")
	f, err := os.Create(cityPath)
	if err != nil {
		return err
	}
	if err := roadnet.WriteCSV(f, city); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	args := []string{"-network", cityPath}
	srv, err := e.setup(func(int) []string { return args })
	if err != nil {
		return err
	}
	defer srv.kill()
	sess := make([]*session, matchShape.sessions)
	for i := range sess {
		if sess[i], err = openSession(e.a, srv.base, feed, i); err != nil {
			return err
		}
	}
	lanes := streamSchedule(srv.base, matchShape, sess, e.openLoopSeconds(), nil)
	r, err := e.measureOpenLoop(srv, lanes)
	if err != nil {
		return err
	}
	if err := e.reportOpenLoop(r, routeIngest); err != nil {
		return err
	}
	e.reportStreamScrape(r)
	e.checkSessions(e.a, srv.base, sess)
	feeds := make([]*simulate.Replay, matchShape.sessions)
	for i := range feeds {
		feeds[i] = feed
	}
	if err := e.streamClosedLoop(srv, feeds); err != nil {
		return err
	}
	srv.stop()
	if !e.trace {
		return nil
	}
	return e.traceStream(city, sess, "")
}
