package store_test

import (
	"bytes"
	"fmt"
	"testing"

	"sidq/internal/store"
)

// BenchmarkStoreAppend measures the append path per fsync mode. Runs on
// the real filesystem (b.TempDir) so fsync=batch reflects actual disk
// behavior; fsync=off isolates the framing + buffered-write cost.
func BenchmarkStoreAppend(b *testing.B) {
	payload := []byte("src-007,1700000000.5,116.3974,39.9093") // one ingest CSV row
	for _, mode := range []store.FsyncMode{store.FsyncOff, store.FsyncBatch} {
		b.Run(fmt.Sprintf("fsync=%s", mode), func(b *testing.B) {
			l, _, err := store.Open(b.TempDir()+"/wal", store.Options{Fsync: mode})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(2, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreAppendParallel exercises group commit: many goroutines
// appending under fsync=always share fsyncs.
func BenchmarkStoreAppendParallel(b *testing.B) {
	payload := []byte("src-007,1700000000.5,116.3974,39.9093")
	l, _, err := store.Open(b.TempDir()+"/wal", store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := l.Append(2, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLogReadRange/active reads a fixed 16-record window from the
// tail of an active segment holding n records. The log keeps each
// active record's offset, so ns/op should stay flat as n grows.
func BenchmarkLogReadRange(b *testing.B) {
	payload := bytes.Repeat([]byte{'x'}, 1024) // about one ingest chunk
	b.Run("active", func(b *testing.B) {
		for _, n := range []int{1 << 10, 8 << 10} {
			l, _, err := store.Open(b.TempDir()+"/wal", store.Options{Fsync: store.FsyncOff})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := l.Append(2, payload); err != nil {
					b.Fatal(err)
				}
			}
			from := uint64(n - 32)
			b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					got := 0
					if err := l.ReadRange(from, from+15, func(store.Record) error {
						got++
						return nil
					}); err != nil || got != 16 {
						b.Fatalf("read %d records, err %v", got, err)
					}
				}
			})
			l.Close()
		}
	})
}
