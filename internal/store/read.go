package store

import (
	"fmt"
	"math"
	"path"
)

// Replay streams every durable record, in seq order, through fn. It is
// the recovery entry point: the caller rebuilds its state machine from
// the records. Stops at fn's first error.
func (l *Log) Replay(fn func(Record) error) error {
	obsReplay()
	return l.ReadRange(1, math.MaxUint64, fn)
}

// ReadRange streams records with from <= Seq <= to, in seq order,
// through fn. Sealed segments that do not overlap the range are not
// read at all — the manifest's seq ranges are the coarse index. From
// the active segment only the requested span is read: the log keeps
// the byte offset of every active record, so one ReadAt under the log
// lock (after a buffer flush) copies exactly the frames in range, and
// their CRC checks and fn run after the lock is released. Every
// emitted record verifies; a span that reads short or hits a frame
// that fails to verify (a poisoned or closed log whose buffer never
// reached the file) ends the read there, so only what reached the
// file is ever returned. Payloads alias a buffer private to this
// call, never the log's memory.
//
// A TruncateFront running concurrently may remove segments after the
// sealed list is copied; those segments are silently skipped, so the
// emitted seqs are still strictly ascending but may start above (or
// have an initial gap below) the log's retained floor at return time.
// Records at or above FirstSeq observed after ReadRange returns are
// always complete.
func (l *Log) ReadRange(from, to uint64, fn func(Record) error) error {
	l.mu.Lock()
	sealed := append([]SegmentInfo(nil), l.sealed...)
	wantFirst := l.activeFirst
	l.mu.Unlock()
	for _, s := range sealed {
		if err := l.emitSealed(s, from, to, fn); err != nil {
			return err
		}
	}
	span, first, spanFirst := l.readActive(from, to)
	// A roll between the sealed-list copy and the active read moves
	// [wantFirst, first) into segments that are in neither: sealed too
	// late for the copy, inactive too early for the read. They are
	// sealed (immutable) now, so read them from the current manifest
	// before the active records — seq order is preserved because every
	// copied segment ends below wantFirst.
	if first != wantFirst {
		l.mu.Lock()
		var gap []SegmentInfo
		for _, s := range l.sealed {
			if s.FirstSeq >= wantFirst && s.LastSeq < first {
				gap = append(gap, s)
			}
		}
		l.mu.Unlock()
		for _, s := range gap {
			if err := l.emitSealed(s, from, to, fn); err != nil {
				return err
			}
		}
	}
	for seq := spanFirst; len(span) > 0; seq++ {
		typ, payload, size, err := parseRecord(span)
		if err != nil {
			return nil // the durable log ends here
		}
		if err := fn(Record{Seq: seq, Type: typ, Payload: payload}); err != nil {
			return err
		}
		span = span[size:]
	}
	return nil
}

// emitSealed reads one sealed segment, verifies it against its
// manifest entry, and emits its records in [from, to]. Segments
// outside the range are not read at all. A segment that a concurrent
// TruncateFront dropped from the manifest between the caller's
// sealed-list copy and the read here is skipped, not an error — its
// open may fail, or its bytes may scan short/torn on filesystems
// where removal invalidates readers; either way the manifest, not the
// file, says whether it is still part of the log.
func (l *Log) emitSealed(s SegmentInfo, from, to uint64, fn func(Record) error) error {
	if s.LastSeq < from || s.FirstSeq > to {
		return nil
	}
	f, err := l.fs.Open(path.Join(l.dir, s.Name))
	if err != nil {
		if !l.sealedListed(s.Name) {
			return nil // truncated out from under us
		}
		return fmt.Errorf("store: open sealed %s: %w", s.Name, err)
	}
	data, err := readAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		if !l.sealedListed(s.Name) {
			return nil
		}
		return fmt.Errorf("store: read sealed %s: %w", s.Name, err)
	}
	res := scanSegment(data)
	if res.torn || uint64(len(res.records)) != s.LastSeq-s.FirstSeq+1 {
		if !l.sealedListed(s.Name) {
			return nil
		}
		return fmt.Errorf("store: sealed segment %s corrupt (%d records, want %d, torn=%v)",
			s.Name, len(res.records), s.LastSeq-s.FirstSeq+1, res.torn)
	}
	return emitRange(res.records, s.FirstSeq, from, to, fn)
}

// sealedListed reports whether name is (still) in the sealed manifest.
func (l *Log) sealedListed(name string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.sealed {
		if s.Name == name {
			return true
		}
	}
	return false
}

// readActive flushes the write buffer and reads the active segment's
// records in [from, to] with one ReadAt, all under the log lock. It
// returns the bytes read (short if the file is), the segment's first
// seq, and the seq of the span's first record.
func (l *Log) readActive(from, to uint64) (span []byte, first, spanFirst uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		if err := l.w.Flush(); err != nil {
			l.failLocked(err)
		}
	}
	first = l.activeFirst
	spanFirst = max(from, first)
	n := uint64(len(l.activeOffs))
	if spanFirst-first >= n || to < spanFirst {
		return nil, first, spanFirst
	}
	lo, hi := l.activeOffs[spanFirst-first], l.activeSize
	if to < first+n-1 {
		hi = l.activeOffs[to-first+1]
	}
	span = make([]byte, hi-lo)
	k, _ := l.active.ReadAt(span, lo) // a short read ends the span; see ReadRange
	return span[:k], first, spanFirst
}

// emitRange numbers recs from firstSeq and forwards those in [from,to].
func emitRange(recs []Record, firstSeq, from, to uint64, fn func(Record) error) error {
	for i := range recs {
		seq := firstSeq + uint64(i)
		if seq < from {
			continue
		}
		if seq > to {
			return nil
		}
		recs[i].Seq = seq
		if err := fn(recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// TruncateFront drops sealed segments whose every record is below
// keepSeq — retention, not compaction: the cut is segment-granular and
// never touches the active segment. The manifest (which also records
// the new truncation horizon) is rewritten before the files are
// removed, so a crash between the two — or a failed Remove — leaves
// stale files that the next Open sweeps. The manifest commit is the
// truncation: the returned count and the removed-segments metric
// reflect the manifest, even when a subsequent Remove fails (that
// error is still returned, alongside the true count).
func (l *Log) TruncateFront(keepSeq uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	cut := 0
	for cut < len(l.sealed) && l.sealed[cut].LastSeq < keepSeq {
		cut++
	}
	if cut == 0 {
		return 0, nil
	}
	dropped := append([]SegmentInfo(nil), l.sealed[:cut]...)
	kept := append([]SegmentInfo(nil), l.sealed[cut:]...)
	horizon := dropped[len(dropped)-1].LastSeq + 1
	if err := writeManifest(l.fs, l.dir, manifest{Sealed: kept, TruncatedTo: horizon}); err != nil {
		l.failLocked(err)
		return 0, err
	}
	l.sealed = kept
	l.truncatedTo = horizon
	obsRemoveSegments(len(dropped))
	var firstErr error
	for _, s := range dropped {
		if err := l.fs.Remove(path.Join(l.dir, s.Name)); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("store: remove %s: %w", s.Name, err)
		}
	}
	return len(dropped), firstErr
}

// SegmentReport is one segment's health in a VerifyReport.
type SegmentReport struct {
	Name     string
	Sealed   bool   // listed in the manifest
	FirstSeq uint64 // from the name
	Records  int    // verified records
	Bytes    int64  // file size
	Good     int64  // bytes of verified records
	Torn     bool   // data past Good failed to verify
	Problem  string // non-empty = integrity violation beyond a recoverable tail
}

// VerifyReport is the operator-facing integrity summary of a log
// directory.
type VerifyReport struct {
	Segments   []SegmentReport
	LastSeq    uint64 // last seq recovery would yield
	DurableOff string // "segment:offset" of the durable end
	TornBytes  int64  // tail bytes recovery would truncate
	Problems   []string
}

// OK reports whether the directory is fully intact up to (at most) a
// recoverable torn tail.
func (r VerifyReport) OK() bool { return len(r.Problems) == 0 }

// Verify walks a log directory read-only: every sealed segment's
// checksums and record counts are validated against the manifest, the
// unlisted tail is scanned the way recovery would scan it, and the
// last durable record's position is reported. Nothing is modified —
// Verify on a live or crashed directory is always safe.
func Verify(dir string, fs FS) (VerifyReport, error) {
	if fs == nil {
		fs = OSFS{}
	}
	var rep VerifyReport
	m, err := loadManifest(fs, dir)
	if err != nil {
		rep.Problems = append(rep.Problems, err.Error())
		return rep, nil
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return rep, fmt.Errorf("store: readdir %s: %w", dir, err)
	}
	present := map[string]bool{}
	listed := map[string]bool{}
	for _, n := range names {
		present[n] = true
	}
	scan := func(name string) ([]byte, error) {
		f, err := fs.Open(path.Join(dir, name))
		if err != nil {
			return nil, err
		}
		data, err := readAll(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return data, err
	}
	expected := uint64(1)
	if m.TruncatedTo > expected {
		expected = m.TruncatedTo // segments below the horizon are stale, not gaps
	}
	for _, s := range m.Sealed {
		listed[s.Name] = true
		sr := SegmentReport{Name: s.Name, Sealed: true, FirstSeq: s.FirstSeq}
		switch data, err := scan(s.Name); {
		case !present[s.Name]:
			sr.Problem = "sealed segment missing"
		case err != nil:
			sr.Problem = fmt.Sprintf("read: %v", err)
		default:
			res := scanSegment(data)
			sr.Records, sr.Bytes, sr.Good, sr.Torn = len(res.records), int64(len(data)), res.good, res.torn
			if res.torn {
				sr.Problem = fmt.Sprintf("sealed segment torn at offset %d", res.good)
			} else if uint64(len(res.records)) != s.LastSeq-s.FirstSeq+1 {
				sr.Problem = fmt.Sprintf("%d records, manifest says %d", len(res.records), s.LastSeq-s.FirstSeq+1)
			}
		}
		if sr.Problem != "" {
			rep.Problems = append(rep.Problems, s.Name+": "+sr.Problem)
		}
		rep.Segments = append(rep.Segments, sr)
		expected = s.LastSeq + 1
		rep.LastSeq = s.LastSeq
		rep.DurableOff = fmt.Sprintf("%s:%d", s.Name, s.Bytes)
	}
	// The unlisted tail, scanned like recovery: contiguous complete
	// segments extend the durable log; the first tear ends it.
	var tail []uint64
	for _, n := range names {
		if n == manifestName || listed[n] {
			continue
		}
		if seq, ok := parseSegmentName(n); ok && seq >= expected {
			tail = append(tail, seq)
		} else {
			rep.Problems = append(rep.Problems, n+": stale file (removed by next recovery)")
		}
	}
	sortUint64(tail)
	ended := false
	for _, first := range tail {
		name := segmentName(first)
		sr := SegmentReport{Name: name, FirstSeq: first}
		data, err := scan(name)
		if err != nil {
			sr.Problem = fmt.Sprintf("read: %v", err)
			rep.Problems = append(rep.Problems, name+": "+sr.Problem)
			rep.Segments = append(rep.Segments, sr)
			continue
		}
		res := scanSegment(data)
		sr.Records, sr.Bytes, sr.Good, sr.Torn = len(res.records), int64(len(data)), res.good, res.torn
		switch {
		case ended:
			sr.Problem = "unreachable (past a tear or gap; removed by next recovery)"
			rep.Problems = append(rep.Problems, name+": "+sr.Problem)
		case first != expected:
			sr.Problem = fmt.Sprintf("gap: starts at seq %d, want %d", first, expected)
			rep.Problems = append(rep.Problems, name+": "+sr.Problem)
			ended = true
		default:
			expected = first + uint64(len(res.records))
			rep.LastSeq = expected - 1
			rep.DurableOff = fmt.Sprintf("%s:%d", name, res.good)
			if res.torn {
				rep.TornBytes += sr.Bytes - res.good
				ended = true
			}
		}
		rep.Segments = append(rep.Segments, sr)
	}
	return rep, nil
}
