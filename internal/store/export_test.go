package store

// ScanActive is the reference read of the active segment that ReadRange
// replaced: flush the write buffer, then read the whole file and scan
// it front to back under the log lock. It returns the verified records,
// numbered from the segment's first seq. Tests compare ReadRange's
// offset-indexed span reads against it.
func ScanActive(l *Log) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		if err := l.w.Flush(); err != nil {
			l.failLocked(err)
		}
	}
	data, err := readAll(l.active)
	if err != nil {
		return nil
	}
	recs := scanSegment(data).records
	for i := range recs {
		recs[i].Seq = l.activeFirst + uint64(i)
	}
	return recs
}
