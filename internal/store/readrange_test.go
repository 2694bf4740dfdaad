package store_test

import (
	"bytes"
	"fmt"
	"testing"

	"sidq/internal/faults"
	"sidq/internal/store"
)

// checkSpans compares ReadRange over every (from, to) pair around the
// active segment with a full scan of the segment file. With sealed
// segments present, ranges start in the active segment, so that
// ReadRange reads it alone.
func checkSpans(t *testing.T, l *store.Log, label string) {
	t.Helper()
	all := store.ScanActive(l)
	segs := l.Segments()
	first := segs[len(segs)-1].FirstSeq
	last := first + uint64(len(all)) // one past the last verified seq
	lo := first
	if len(segs) == 1 {
		lo-- // also ranges starting below the log
	}
	for from := lo; from <= last; from++ {
		for to := from - 1; to <= last; to++ {
			var got []store.Record
			if err := l.ReadRange(from, to, func(r store.Record) error {
				got = append(got, r)
				return nil
			}); err != nil {
				t.Fatalf("%s: ReadRange(%d, %d): %v", label, from, to, err)
			}
			var want []store.Record
			for _, r := range all {
				if r.Seq >= from && r.Seq <= to {
					want = append(want, r)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: ReadRange(%d, %d) returned %d records, full scan has %d", label, from, to, len(got), len(want))
			}
			for i := range got {
				if got[i].Seq != want[i].Seq || got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
					t.Fatalf("%s: ReadRange(%d, %d) record %d is seq %d, full scan has seq %d", label, from, to, i, got[i].Seq, want[i].Seq)
				}
			}
		}
	}
}

// appendMixed appends payloads with a type byte that varies per record.
func appendMixed(t *testing.T, l *store.Log, payloads [][]byte) {
	t.Helper()
	for i, p := range payloads {
		if _, err := l.Append(byte(1+i%3), p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadRangeSpans: span reads of the active segment equal a full
// scan for every range, on a live log with buffered records, and after
// segment rolls have restarted the offsets.
func TestReadRangeSpans(t *testing.T) {
	for _, segBytes := range []int64{0, 1500} {
		l, _, err := store.Open("wal", store.Options{FS: faults.NewCrashFS(), Fsync: store.FsyncOff, SegmentBytes: segBytes})
		if err != nil {
			t.Fatal(err)
		}
		checkSpans(t, l, "empty")
		appendMixed(t, l, sweepPayloads(40))
		label := fmt.Sprintf("%d segments", len(l.Segments()))
		if segBytes > 0 && len(l.Segments()) < 3 {
			t.Fatalf("%s: want at least 3", label)
		}
		checkSpans(t, l, label)
		l.Close()
	}
}

// TestReadRangeSpansAfterRecovery: offsets rebuilt by recovery from a
// crash image with a torn tail serve the same spans as a full scan,
// before and after further appends.
func TestReadRangeSpansAfterRecovery(t *testing.T) {
	payloads := sweepPayloads(30)
	for seed := int64(0); seed < 8; seed++ {
		fs := faults.NewCrashFS()
		l, _, err := store.Open("wal", store.Options{FS: fs, Fsync: store.FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		appendMixed(t, l, payloads[:12])
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		appendMixed(t, l, payloads[12:])
		img := fs.Crash(seed, true)
		l2, info, err := store.Open("wal", store.Options{FS: img, Fsync: store.FsyncOff})
		if err != nil {
			t.Fatalf("seed %d: recovery: %v", seed, err)
		}
		label := fmt.Sprintf("seed %d (%d records recovered)", seed, info.Records)
		checkSpans(t, l2, label)
		appendMixed(t, l2, payloads[:7])
		checkSpans(t, l2, label+" + 7 appended")
		l2.Close()
	}
}

// TestReadRangeSpansPoisoned: a short write during ReadRange's own
// buffer flush poisons the log; that read, every later one and every
// read after Close return only the verified prefix that reached the
// file, equal to a full scan for every range.
func TestReadRangeSpansPoisoned(t *testing.T) {
	fs := faults.NewCrashFS()
	l, _, err := store.Open("wal", store.Options{FS: fs, Fsync: store.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	payloads := sweepPayloads(60)
	appendMixed(t, l, payloads[:10])
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.FailWriteAfter(700, 5)
	appendMixed(t, l, payloads[10:]) // buffered: the flush will write short
	var got [][]byte
	if err := l.ReadRange(1, 1<<62, func(r store.Record) error {
		got = append(got, r.Payload)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) < 10 || len(got) >= len(payloads) {
		t.Fatalf("poisoned read returned %d records; want the 10 synced and fewer than all %d", len(got), len(payloads))
	}
	for i, p := range got {
		if !bytes.Equal(p, payloads[i]) {
			t.Fatalf("poisoned read: record %d is not the payload appended at that seq", i+1)
		}
	}
	if _, err := l.Append(1, []byte("after")); err == nil {
		t.Fatal("append after a failed flush succeeded")
	}
	checkSpans(t, l, "poisoned")
	l.Close()
	checkSpans(t, l, "closed")
}
