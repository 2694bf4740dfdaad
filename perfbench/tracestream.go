package main

// The traced run of the streaming workloads: the chunks each open-loop
// session sent go through stream.FanOut, one stream.Reorderer per
// source, the speed gate and (with a city) one
// uncertain.OnlineMatcher per source, as the server's session does;
// on stream-durable, a copy of the WAL taken at the kill -9 is opened,
// replayed, re-appended into a fresh log and read back.

import (
	"fmt"
	"os"
	"path/filepath"

	"sidq/internal/geo"
	"sidq/internal/roadnet"
	"sidq/internal/simulate"
	"sidq/internal/store"
	"sidq/internal/stream"
	"sidq/internal/trajectory"
	"sidq/internal/uncertain"
)

const (
	traceChunks = 96 // chunks per session replayed by the traced run
	lateness    = 5  // sidqserve's default -stream-lateness, event-time s
	matchLag    = 5  // sidqserve's default matcher decision lag, points
	snapCell    = 100
	walSnapshot = 5 // record type of a session snapshot in the server's WAL
)

// srcState mirrors the server's per-source cleaning state.
type srcState struct {
	re      *stream.Reorderer[trajectory.Point]
	hasLast bool
	last    trajectory.Point
	matcher *uncertain.OnlineMatcher
}

func (e *env) traceStream(city *roadnet.Graph, sess []*session, walCopy string) error {
	var snapper *roadnet.Snapper
	if city != nil {
		snapper = roadnet.NewSnapper(city, snapCell)
	}
	var pendMax, matchPendMax, events, chunks, matched int
	var n, recBytes, snapBytes int
	pass := 0
	replay := func(t *tracer) error {
		pass++
		pendMax, matchPendMax, events, chunks, matched = 0, 0, 0, 0, 0
		for _, s := range sess {
			states := map[string]*srcState{}
			n := min(s.chunks, traceChunks)
			for k := 0; k < n; k++ {
				req := fmt.Sprintf("%s/%d", s.id, k)
				root := t.begin("bench.chunk", 0, req)
				pts := s.feed.Points(s.stream, k, chunkPoints)
				evs := make([]stream.Event[simulate.ReplayPoint], len(pts))
				for i, p := range pts {
					evs[i] = stream.Event[simulate.ReplayPoint]{Time: p.T, Value: p}
				}
				sp := t.begin("stream.fanout", root, req)
				lanes := stream.FanOut(evs, 4, func(ev stream.Event[simulate.ReplayPoint]) string { return ev.Value.Source })
				t.end(sp, len(evs))
				for _, lane := range lanes {
					if len(lane) == 0 {
						continue
					}
					type rel struct {
						st *srcState
						pt trajectory.Point
					}
					var released []rel
					sp = t.begin("stream.reorder", root, req)
					for _, ev := range lane {
						st := states[ev.Value.Source]
						if st == nil {
							st = &srcState{re: stream.NewReorderer[trajectory.Point](lateness)}
							if snapper != nil {
								st.matcher = uncertain.NewOnlineMatcher(city, snapper, uncertain.MatchOptions{}, matchLag)
							}
							states[ev.Value.Source] = st
						}
						pt := trajectory.Point{T: ev.Value.T, Pos: geo.Pt(ev.Value.X, ev.Value.Y)}
						for _, r := range st.re.Push(stream.Event[trajectory.Point]{Time: ev.Time, Value: pt}) {
							released = append(released, rel{st, r.Value})
						}
					}
					t.end(sp, len(lane))
					// The speed gate is the server session's own code.
					sp = t.begin("server.speed_gate", root, req)
					kept := released[:0]
					for _, r := range released {
						st := r.st
						if st.hasLast {
							dt := r.pt.T - st.last.T
							if dt <= 0 || st.last.Pos.Dist(r.pt.Pos)/dt > maxSpeed {
								continue
							}
						}
						st.last, st.hasLast = r.pt, true
						kept = append(kept, r)
					}
					t.end(sp, len(released))
					if snapper != nil && len(kept) > 0 {
						sp = t.begin("uncertain.match", root, req)
						for _, r := range kept {
							r.st.matcher.Push(r.pt)
						}
						t.end(sp, len(kept))
						matched += len(kept)
					}
				}
				pend, mpend := 0, 0
				for _, st := range states {
					pend += st.re.Pending()
					if st.matcher != nil {
						mpend += st.matcher.Pending()
					}
				}
				pendMax, matchPendMax = max(pendMax, pend), max(matchPendMax, mpend)
				events += len(evs)
				chunks++
				t.end(root, len(evs))
			}
		}
		if walCopy == "" {
			return nil
		}
		var err error
		n, recBytes, snapBytes, err = traceStore(t, walCopy, filepath.Join(filepath.Dir(walCopy), fmt.Sprintf("wal-append-%d", pass)))
		return err
	}
	t, err := e.timeTraced(replay)
	if err != nil {
		return err
	}
	tot := totalsByName(t.spans)
	us := func(name string, per int) float64 { return ratio(float64(tot[name].selfNs)/1e3, float64(per)) }
	e.layers.add("stream.fanout_us_per_chunk", "us", us("stream.fanout", chunks), chunks)
	e.layers.add("stream.reorder_us_per_event", "us", us("stream.reorder", events), events)
	e.layers.add("stream.reorder_pending_max", "count", float64(pendMax), 0)
	e.layers.add("uncertain.match_us_per_point", "us", us("uncertain.match", matched), matched)
	e.layers.add("uncertain.match_pending_max", "count", float64(matchPendMax), 0)
	e.layers.add("store.append_us_per_record", "us", us("store.append", n), n)
	e.layers.add("store.replay_us_per_record", "us", us("store.replay", n), n)
	e.layers.add("store.read_range_us_per_record", "us", us("store.read_range", n), n)
	e.layers.add("store.snapshot_bytes_share", "ratio", ratio(float64(snapBytes), float64(recBytes)), 0)
	if rec, ok := e.e2e.get("recover_s"); ok && n > 0 {
		replayNs := float64(tot["store.open"].selfNs + tot["store.replay"].selfNs)
		e.layers.add("store.replay_share_of_recover", "ratio", replayNs/1e9/rec.value, 0)
	} else {
		e.layers.add("store.replay_share_of_recover", "ratio", 0, 0)
	}
	return e.finishTrace(t)
}

// traceStore opens the WAL copy and replays it, then appends every
// record into a fresh log at fresh (same fsync mode as sidqserve's
// default, batch) and reads them back with ReadRange.
func traceStore(t *tracer, walCopy, fresh string) (n, total, snap int, err error) {
	const req = "store"
	root := t.begin("bench.store", 0, req)
	defer t.end(root, 0)
	sp := t.begin("store.open", root, req)
	l, _, err := store.Open(walCopy, store.Options{Fsync: store.FsyncBatch})
	t.end(sp, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	var recs []store.Record
	sp = t.begin("store.replay", root, req)
	err = l.Replay(func(r store.Record) error {
		recs = append(recs, store.Record{Seq: r.Seq, Type: r.Type, Payload: append([]byte(nil), r.Payload...)})
		return nil
	})
	t.end(sp, len(recs))
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, 0, err
	}
	for _, r := range recs {
		total += len(r.Payload)
		if r.Type == walSnapshot {
			snap += len(r.Payload)
		}
	}
	if err := os.RemoveAll(fresh); err != nil {
		return 0, 0, 0, err
	}
	l2, _, err := store.Open(fresh, store.Options{Fsync: store.FsyncBatch})
	if err != nil {
		return 0, 0, 0, err
	}
	defer l2.Close()
	sp = t.begin("store.append", root, req)
	for _, r := range recs {
		if _, err := l2.Append(r.Type, r.Payload); err != nil {
			return 0, 0, 0, err
		}
	}
	t.end(sp, len(recs))
	read := 0
	sp = t.begin("store.read_range", root, req)
	err = l2.ReadRange(l2.FirstSeq(), l2.LastSeq(), func(store.Record) error {
		read++
		return nil
	})
	t.end(sp, read)
	if err != nil {
		return 0, 0, 0, err
	}
	if read != len(recs) {
		return 0, 0, 0, fmt.Errorf("read back %d of %d records", read, len(recs))
	}
	return len(recs), total, snap, nil
}
