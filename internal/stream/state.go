package stream

// Snapshot/restore support for stream-session durability: the server
// checkpoints reorderer state into its WAL so a crash-restarted
// session resumes with an identical watermark and pending buffer (see
// DESIGN.md "Durability & recovery").

// ReordererState is a serializable snapshot of a Reorderer. Its fields
// are exported so a WAL codec can write and read them one by one (the
// server's lays them out in internal/server/walcodec.go).
type ReordererState[T any] struct {
	Lateness  float64
	Buf       []Event[T] // pending events, time-sorted
	Watermark float64
	Late      int
	Emitted   int
}

// State captures the reorderer's complete state. The buffer is copied;
// mutating the snapshot does not affect the live reorderer.
func (r *Reorderer[T]) State() ReordererState[T] {
	return ReordererState[T]{
		Lateness:  r.lateness,
		Buf:       append([]Event[T](nil), r.buf...),
		Watermark: r.watermark,
		Late:      r.late,
		Emitted:   r.emitted,
	}
}

// NewReordererFromState rebuilds a reorderer that behaves identically
// to the one State was called on: same watermark, same pending events,
// same counters.
func NewReordererFromState[T any](st ReordererState[T]) *Reorderer[T] {
	r := NewReorderer[T](st.Lateness)
	r.buf = append([]Event[T](nil), st.Buf...)
	if st.Watermark > r.watermark {
		r.watermark = st.Watermark
	}
	r.late = st.Late
	r.emitted = st.Emitted
	obsPending(int64(len(r.buf)))
	return r
}
