// Package store is sidq's durability substrate: a segmented append-only
// log with WAL-style group-commit fsync batching, CRC32C-checksummed
// length-prefixed records, a sealed-segment manifest, and crash
// recovery that truncates a torn tail and resumes at the last durable
// record. It is stdlib-only and writes through a small FS abstraction
// so fault harnesses (internal/faults) can inject short writes, fsync
// failures, and crash images.
//
// Durability contract (see DESIGN.md "Durability & recovery"):
//
//   - A record is durable iff its full frame (length, CRC32C, type,
//     payload) verifies on disk. Recovery returns exactly the longest
//     verifiable prefix of the log — never a partial record.
//   - FsyncAlways: Append returns only after an fsync covering the
//     record. Concurrent appenders share fsyncs (group commit): while
//     one fsync is in flight, arriving appends buffer behind it and
//     are all released by the next single fsync.
//   - FsyncBatch: Append returns after the buffered write; a
//     background flusher fsyncs every BatchInterval. A crash can lose
//     up to one interval of acked records.
//   - FsyncOff: no fsyncs except at segment seal and Close. For
//     benchmarks and tests.
//   - Any write, flush, or fsync error poisons the log: the failed
//     and all subsequent Appends return the error rather than lying
//     about durability (an fsync failure leaves the page cache in an
//     unknowable state, so there is no safe retry).
package store

import (
	"bufio"
	"errors"
	"fmt"
	"path"
	"sync"
	"sync/atomic"
	"time"
)

// FsyncMode selects when Append makes records durable.
type FsyncMode int

// Fsync modes.
const (
	FsyncAlways FsyncMode = iota // fsync (group-committed) before every Append returns
	FsyncBatch                   // background fsync every BatchInterval
	FsyncOff                     // no fsync except seal/close
)

// String renders the mode as its flag spelling.
func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncBatch:
		return "batch"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncMode(%d)", int(m))
}

// ParseFsyncMode parses the -fsync flag spelling.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "batch":
		return FsyncBatch, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("unknown fsync mode %q (want always, batch, or off)", s)
}

// Options tunes a Log. Zero fields take the documented defaults.
type Options struct {
	FS            FS               // filesystem (default OSFS{})
	Fsync         FsyncMode        // durability mode (default FsyncAlways)
	SegmentBytes  int64            // roll the active segment past this size (default 64 MiB)
	SegmentAge    time.Duration    // also roll past this age; 0 = size-only
	BatchInterval time.Duration    // FsyncBatch flush period (default 25ms)
	Now           func() time.Time // clock, injectable for age-roll tests
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.BatchInterval <= 0 {
		o.BatchInterval = 25 * time.Millisecond
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("store: log closed")

// RecoveryInfo reports what Open had to do to reach a consistent log.
type RecoveryInfo struct {
	Records           int    // records scanned in unsealed segments
	LastSeq           uint64 // highest durable seq (0 = empty log)
	TornBytes         int64  // bytes truncated off the torn tail
	AdoptedSegments   int    // sealed-but-unlisted segments re-adopted into the manifest
	DiscardedSegments int    // unreachable segments removed (past a tear or non-contiguous)
	StaleFiles        int    // leftover files removed (tmp manifest, pre-truncation segments)
}

// Log is a segmented append-only record log. All methods are safe for
// concurrent use.
type Log struct {
	dir string
	opt Options
	fs  FS

	mu          sync.Mutex // guards buffered writes + the fields below
	active      File
	w           *bufio.Writer
	activeFirst uint64  // first seq in the active segment
	activeSize  int64   // bytes appended to the active segment (incl. buffered)
	activeOffs  []int64 // byte offset of each active-segment record, by seq - activeFirst
	activeBorn  time.Time
	nextSeq     uint64
	sealed      []SegmentInfo
	truncatedTo uint64 // retention horizon persisted in the manifest (0 = never truncated)
	err         error  // sticky failure; all appends fail after it
	scratch     []byte

	fsyncMu sync.Mutex    // serializes fsync against segment-roll close
	gen     atomic.Uint64 // bumped under fsyncMu after each successful seal; lets
	// syncNow detect a roll without reacquiring l.mu (lock order is
	// always l.mu -> fsyncMu, never the reverse)

	sc struct {
		mu      sync.Mutex
		cond    *sync.Cond
		durable uint64 // highest seq known fsynced
		syncing bool   // an fsync is in flight (group-commit gate)
		err     error  // sticky failure, mirrored for waiters
	}

	batchStop chan struct{}
	batchDone chan struct{}
	closeOnce sync.Once
}

// Open opens (creating if needed) the log in dir and runs crash
// recovery: stale files are removed, sealed-but-unlisted segments are
// re-adopted, the torn tail is truncated to the last verifiable
// record, and the active segment is reopened for append.
func Open(dir string, opt Options) (*Log, RecoveryInfo, error) {
	opt = opt.withDefaults()
	l := &Log{dir: dir, opt: opt, fs: opt.FS}
	l.sc.cond = sync.NewCond(&l.sc.mu)
	info, err := l.recover()
	if err != nil {
		return nil, info, err
	}
	obsRecovery(&info)
	registerLog(l)
	if opt.Fsync == FsyncBatch {
		l.batchStop = make(chan struct{})
		l.batchDone = make(chan struct{})
		go l.batchLoop()
	}
	return l, info, nil
}

// recover scans dir into a consistent, appendable state.
func (l *Log) recover() (RecoveryInfo, error) {
	var info RecoveryInfo
	fs := l.fs
	if err := fs.MkdirAll(l.dir); err != nil {
		return info, fmt.Errorf("store: mkdir %s: %w", l.dir, err)
	}
	m, err := loadManifest(fs, l.dir)
	if err != nil {
		return info, fmt.Errorf("store: %w", err)
	}
	names, err := fs.ReadDir(l.dir)
	if err != nil {
		return info, fmt.Errorf("store: readdir %s: %w", l.dir, err)
	}
	listed := map[string]bool{}
	for _, s := range m.Sealed {
		listed[s.Name] = true
	}
	expected := uint64(1)
	if m.TruncatedTo > expected {
		// Nothing below the truncation horizon is part of the log, even
		// if a crash resurrected removed segment files below it.
		expected = m.TruncatedTo
	}
	if n := len(m.Sealed); n > 0 {
		expected = m.Sealed[n-1].LastSeq + 1
	}
	// Partition the directory: sealed segments must exist; unlisted
	// segment files at or past the sealed horizon are the recovery
	// tail; anything else (tmp manifests, segments below the horizon
	// left by an interrupted TruncateFront) is stale and removed.
	present := map[string]bool{}
	var tail []uint64 // firstSeqs of unlisted segments, sorted by ReadDir
	for _, name := range names {
		present[name] = true
		if name == manifestName || listed[name] {
			continue
		}
		seq, ok := parseSegmentName(name)
		if !ok || seq < expected {
			if err := fs.Remove(path.Join(l.dir, name)); err != nil {
				return info, fmt.Errorf("store: remove stale %s: %w", name, err)
			}
			info.StaleFiles++
			continue
		}
		tail = append(tail, seq)
	}
	for _, s := range m.Sealed {
		if !present[s.Name] {
			return info, fmt.Errorf("store: sealed segment %s missing from %s", s.Name, l.dir)
		}
	}
	sortUint64(tail)
	l.sealed = m.Sealed
	l.truncatedTo = m.TruncatedTo
	l.nextSeq = expected

	// Walk the unlisted tail in seq order. Complete segments followed
	// by more tail are re-adopted into the manifest (their seal's
	// rename was lost in a crash); the first tear ends the durable log
	// — the torn file is truncated in place and anything after it is
	// unreachable and removed.
	adopted := false
	var activeName string
	var activeGood int64
	var activeRecs []Record
	for i, first := range tail {
		name := segmentName(first)
		if first != l.nextSeq {
			// A gap: this segment and everything after is unreachable.
			for _, seq := range tail[i:] {
				if err := fs.Remove(path.Join(l.dir, segmentName(seq))); err != nil {
					return info, fmt.Errorf("store: remove unreachable %s: %w", segmentName(seq), err)
				}
				info.DiscardedSegments++
			}
			break
		}
		f, err := fs.Open(path.Join(l.dir, name))
		if err != nil {
			return info, fmt.Errorf("store: open %s: %w", name, err)
		}
		data, err := readAll(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return info, fmt.Errorf("store: read %s: %w", name, err)
		}
		res := scanSegment(data)
		info.Records += len(res.records)
		l.nextSeq = first + uint64(len(res.records))
		if res.torn || i == len(tail)-1 {
			if res.torn {
				info.TornBytes += int64(len(data)) - res.good
				obsTornTruncation()
			}
			activeName, activeGood, activeRecs = name, res.good, res.records
			for _, seq := range tail[i+1:] {
				if err := fs.Remove(path.Join(l.dir, segmentName(seq))); err != nil {
					return info, fmt.Errorf("store: remove unreachable %s: %w", segmentName(seq), err)
				}
				info.DiscardedSegments++
			}
			break
		}
		// Complete and followed by more tail: re-adopt as sealed.
		l.sealed = append(l.sealed, SegmentInfo{
			Name: name, FirstSeq: first, LastSeq: l.nextSeq - 1, Bytes: int64(len(data)),
		})
		info.AdoptedSegments++
		adopted = true
	}
	if adopted {
		if err := writeManifest(fs, l.dir, manifest{Sealed: l.sealed, TruncatedTo: l.truncatedTo}); err != nil {
			return info, fmt.Errorf("store: %w", err)
		}
	}

	// Reopen (or create) the active segment and make the recovered
	// state durable: the truncation must not reappear after the next
	// crash.
	l.activeFirst = l.nextSeq
	if activeName != "" {
		l.activeFirst = mustSegSeq(activeName)
		f, err := fs.Open(path.Join(l.dir, activeName))
		if err != nil {
			return info, fmt.Errorf("store: reopen %s: %w", activeName, err)
		}
		if err := f.Truncate(activeGood); err != nil {
			f.Close()
			return info, fmt.Errorf("store: truncate %s: %w", activeName, err)
		}
		if _, err := f.Seek(0, 2); err != nil {
			f.Close()
			return info, fmt.Errorf("store: seek %s: %w", activeName, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return info, fmt.Errorf("store: sync %s: %w", activeName, err)
		}
		l.active = f
		l.activeSize = activeGood
		var off int64
		for _, r := range activeRecs {
			l.activeOffs = append(l.activeOffs, off)
			off += recordSize(r.Payload)
		}
	} else {
		name := segmentName(l.activeFirst)
		f, err := fs.Create(path.Join(l.dir, name))
		if err != nil {
			return info, fmt.Errorf("store: create %s: %w", name, err)
		}
		if err := fs.SyncDir(l.dir); err != nil {
			f.Close()
			return info, fmt.Errorf("store: sync dir: %w", err)
		}
		l.active = f
		l.activeSize = 0
	}
	l.activeBorn = l.opt.Now()
	l.w = bufio.NewWriterSize(l.active, 1<<16)
	l.sc.durable = l.nextSeq - 1
	info.LastSeq = l.nextSeq - 1
	return info, nil
}

func mustSegSeq(name string) uint64 {
	seq, ok := parseSegmentName(name)
	if !ok {
		panic("store: bad segment name " + name)
	}
	return seq
}

func sortUint64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Append writes one record and returns its seq. Under FsyncAlways the
// record is durable when Append returns; under FsyncBatch/FsyncOff it
// is buffered (see the package contract).
func (l *Log) Append(typ byte, payload []byte) (uint64, error) {
	if int64(len(payload)) > MaxRecord {
		return 0, fmt.Errorf("store: record payload %d exceeds max %d", len(payload), int64(MaxRecord))
	}
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return 0, err
	}
	if l.activeSize > 0 && (l.activeSize >= l.opt.SegmentBytes ||
		(l.opt.SegmentAge > 0 && l.opt.Now().Sub(l.activeBorn) >= l.opt.SegmentAge)) {
		if err := l.rollLocked(); err != nil {
			l.mu.Unlock()
			return 0, err
		}
	}
	seq := l.nextSeq
	l.scratch = appendRecord(l.scratch[:0], typ, payload)
	if _, err := l.w.Write(l.scratch); err != nil {
		l.failLocked(err)
		l.mu.Unlock()
		return 0, err
	}
	l.nextSeq++
	l.activeOffs = append(l.activeOffs, l.activeSize)
	l.activeSize += int64(len(l.scratch))
	mode := l.opt.Fsync
	l.mu.Unlock()
	obsAppend(len(payload))
	if mode == FsyncAlways {
		if err := l.waitDurable(seq); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// waitDurable blocks until seq is covered by an fsync, sharing in-
// flight fsyncs between waiters (group commit): the first waiter to
// find no fsync running becomes the syncer; everyone else rides its
// broadcast, and anyone whose record missed the flush cut starts the
// next round.
func (l *Log) waitDurable(seq uint64) error {
	sc := &l.sc
	sc.mu.Lock()
	for {
		if sc.err != nil {
			err := sc.err
			sc.mu.Unlock()
			return err
		}
		if sc.durable >= seq {
			sc.mu.Unlock()
			return nil
		}
		if sc.syncing {
			sc.cond.Wait()
			continue
		}
		sc.syncing = true
		sc.mu.Unlock()
		hi, err := l.syncNow()
		sc.mu.Lock()
		sc.syncing = false
		if err != nil {
			sc.err = err
		} else if hi > sc.durable {
			sc.durable = hi
		}
		sc.cond.Broadcast()
	}
}

// syncNow flushes the write buffer and fsyncs the active segment,
// returning the highest seq the fsync covers. The buffer flush holds
// the log mutex; the fsync itself does not, so appenders keep writing
// (into the buffer) while the disk syncs — that is what makes group
// commit group.
func (l *Log) syncNow() (uint64, error) {
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return 0, err
	}
	if err := l.w.Flush(); err != nil {
		l.failLocked(err)
		l.mu.Unlock()
		return 0, err
	}
	hi := l.nextSeq - 1
	f := l.active
	gen := l.gen.Load()
	l.mu.Unlock()

	l.fsyncMu.Lock()
	// A generation bump means a roll sealed (fsynced and closed) f after
	// our flush, so everything up to hi is already durable and f must
	// not be touched. Checked under fsyncMu, where rolls publish the
	// bump — l.mu is never taken here, which would invert the
	// l.mu -> fsyncMu order rollLocked uses and deadlock.
	stale := l.gen.Load() != gen
	var err error
	if !stale {
		start := time.Now()
		err = f.Sync()
		obsFsync(time.Since(start), err)
	}
	l.fsyncMu.Unlock()
	if err != nil {
		l.fail(err)
		return 0, err
	}
	return hi, nil
}

// Sync forces all buffered records durable regardless of mode.
func (l *Log) Sync() error {
	hi, err := l.syncNow()
	if err != nil {
		return err
	}
	l.markDurable(hi)
	return nil
}

func (l *Log) markDurable(hi uint64) {
	sc := &l.sc
	sc.mu.Lock()
	if hi > sc.durable {
		sc.durable = hi
	}
	sc.cond.Broadcast()
	sc.mu.Unlock()
}

// failLocked poisons the log (caller holds l.mu).
func (l *Log) failLocked(err error) {
	if l.err == nil {
		l.err = fmt.Errorf("store: log failed: %w", err)
	}
	err = l.err
	sc := &l.sc
	sc.mu.Lock()
	if sc.err == nil {
		sc.err = err
	}
	sc.cond.Broadcast()
	sc.mu.Unlock()
}

func (l *Log) fail(err error) {
	l.mu.Lock()
	l.failLocked(err)
	l.mu.Unlock()
}

// rollLocked seals the active segment (flush, fsync, manifest) and
// starts the next one. Caller holds l.mu.
func (l *Log) rollLocked() error {
	if err := l.w.Flush(); err != nil {
		l.failLocked(err)
		return err
	}
	l.fsyncMu.Lock()
	err := l.active.Sync()
	if err == nil {
		err = l.active.Close()
		// Publish the seal while still under fsyncMu: a syncNow that
		// captured this segment either holds fsyncMu now (its fsync hits
		// the still-open file) or observes the new generation and skips.
		l.gen.Add(1)
	}
	l.fsyncMu.Unlock()
	if err != nil {
		l.failLocked(err)
		return err
	}
	info := SegmentInfo{
		Name:     segmentName(l.activeFirst),
		FirstSeq: l.activeFirst,
		LastSeq:  l.nextSeq - 1,
		Bytes:    l.activeSize,
	}
	l.sealed = append(l.sealed, info)
	if err := writeManifest(l.fs, l.dir, manifest{Sealed: l.sealed, TruncatedTo: l.truncatedTo}); err != nil {
		l.failLocked(err)
		return err
	}
	name := segmentName(l.nextSeq)
	f, err := l.fs.Create(path.Join(l.dir, name))
	if err != nil {
		l.failLocked(err)
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		l.failLocked(err)
		return err
	}
	l.active = f
	l.activeFirst = l.nextSeq
	l.activeSize = 0
	l.activeOffs = l.activeOffs[:0]
	l.activeBorn = l.opt.Now()
	l.w = bufio.NewWriterSize(f, 1<<16)
	l.markDurable(info.LastSeq)
	obsSeal()
	return nil
}

// batchLoop is the FsyncBatch background flusher.
func (l *Log) batchLoop() {
	defer close(l.batchDone)
	t := time.NewTicker(l.opt.BatchInterval)
	defer t.Stop()
	for {
		select {
		case <-l.batchStop:
			return
		case <-t.C:
			l.mu.Lock()
			dirty := l.err == nil && l.nextSeq-1 > l.sc.durable
			l.mu.Unlock()
			if dirty {
				_ = l.Sync() // a failure poisons the log; nothing more to do here
			}
		}
	}
}

// Close flushes, fsyncs, and closes the log. Further appends return
// ErrClosed. Idempotent. Returns an error only for a failure that
// happens during Close itself: a log already poisoned by an earlier
// write/fsync error closes "cleanly" — that error was delivered to
// the operation that hit it, and surfacing it again here would make
// every shutdown look like a fresh failure.
func (l *Log) Close() error {
	var err error
	l.closeOnce.Do(func() {
		deregisterLog(l)
		if l.batchStop != nil {
			close(l.batchStop)
			<-l.batchDone
		}
		l.mu.Lock()
		poisoned := l.err != nil
		l.mu.Unlock()
		_, serr := l.syncNow() // clean-shutdown durability, any mode
		l.mu.Lock()
		if cerr := l.active.Close(); serr == nil {
			serr = cerr
		}
		if poisoned {
			serr = nil
		}
		if l.err == nil {
			l.err = ErrClosed
		}
		sc := &l.sc
		sc.mu.Lock()
		if sc.err == nil {
			sc.err = ErrClosed
		}
		sc.cond.Broadcast()
		sc.mu.Unlock()
		l.mu.Unlock()
		err = serr
	})
	return err
}

// LastSeq returns the highest appended seq (0 = empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// FirstSeq returns the lowest seq still present in the log — the
// retained floor after truncation. A never-truncated log reports 1;
// an empty log reports the seq the next Append will be assigned.
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.sealed) > 0 {
		return l.sealed[0].FirstSeq
	}
	return l.activeFirst
}

// DurableSeq returns the highest seq known covered by an fsync.
func (l *Log) DurableSeq() uint64 {
	l.sc.mu.Lock()
	defer l.sc.mu.Unlock()
	return l.sc.durable
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Segments returns the sealed segments plus the active one, in seq
// order. The active segment's Bytes includes buffered-but-unflushed
// data.
func (l *Log) Segments() []SegmentInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]SegmentInfo(nil), l.sealed...)
	out = append(out, SegmentInfo{
		Name:     segmentName(l.activeFirst),
		FirstSeq: l.activeFirst,
		LastSeq:  l.nextSeq - 1,
		Bytes:    l.activeSize,
	})
	return out
}
