package server

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sidq/internal/geo"
	"sidq/internal/roadnet"
	"sidq/internal/stream"
	"sidq/internal/trajectory"
	"sidq/internal/uncertain"
)

// sameBits reports whether a and b hold the same value bit for bit:
// floats compare by their bits (so -0 differs from 0), pointers by
// nil-ness and then pointee, and a nil slice equals an empty one (the
// codec writes both as a zero count).
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int:
		return a.Int() == b.Int()
	case reflect.Uint64:
		return a.Uint() == b.Uint()
	}
	panic("sameBits: unhandled kind " + a.Kind().String())
}

func requireSame(t *testing.T, what string, got, want any) {
	t.Helper()
	if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Fatalf("%s: round trip changed the value\nwant %+v\ngot  %+v", what, want, got)
	}
}

// extremes are NaN-free floats at the edges of what the codec carries.
var extremes = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e-3, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), 1.7e9,
}

func randF64(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return extremes[rng.Intn(len(extremes))]
	}
	return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)))
}

func randInt(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return []int{math.MaxInt, math.MinInt, -1}[rng.Intn(3)]
	}
	return rng.Intn(1000)
}

// randLen is a slice length; -1 asks for a nil slice.
func randLen(rng *rand.Rand, max int) int { return rng.Intn(max+2) - 1 }

func randSrc(rng *rand.Rand) string {
	return []string{"", "a", "veh-0001", "bus-7", "ünïcode", "s\x00x"}[rng.Intn(6)] + fmt.Sprint(rng.Intn(24))
}

func randPoint(rng *rand.Rand) trajectory.Point {
	return trajectory.Point{T: randF64(rng), Pos: geo.Pt(randF64(rng), randF64(rng))}
}

func randEvents(rng *rand.Rand) []walEvent {
	n := randLen(rng, 80)
	if n < 0 {
		return nil
	}
	evs := make([]walEvent, n)
	for i := range evs {
		evs[i] = walEvent{Src: randSrc(rng), T: randF64(rng), X: randF64(rng), Y: randF64(rng)}
	}
	return evs
}

func randMatcher(rng *rand.Rand) *uncertain.MatcherState {
	m := &uncertain.MatcherState{}
	if n := randLen(rng, 4); n >= 0 {
		m.Pts = make([]trajectory.Point, n)
		for i := range m.Pts {
			m.Pts[i] = randPoint(rng)
		}
	}
	if n := randLen(rng, 4); n >= 0 {
		m.Cands = make([][]roadnet.Snap, n)
		for i := range m.Cands {
			if k := randLen(rng, 3); k >= 0 {
				m.Cands[i] = make([]roadnet.Snap, k)
				for j := range m.Cands[i] {
					m.Cands[i][j] = roadnet.Snap{Edge: roadnet.EdgeID(randInt(rng)), Param: randF64(rng), Pos: geo.Pt(randF64(rng), randF64(rng)), Dist: randF64(rng)}
				}
			}
		}
	}
	if n := randLen(rng, 4); n >= 0 {
		m.Logp = make([][]float64, n)
		for i := range m.Logp {
			if k := randLen(rng, 3); k >= 0 {
				m.Logp[i] = make([]float64, k)
				for j := range m.Logp[i] {
					m.Logp[i][j] = randF64(rng)
				}
			}
		}
	}
	if n := randLen(rng, 4); n >= 0 {
		m.Back = make([][]int, n)
		for i := range m.Back {
			if k := randLen(rng, 3); k >= 0 {
				m.Back[i] = make([]int, k)
				for j := range m.Back[i] {
					m.Back[i][j] = randInt(rng)
				}
			}
		}
	}
	return m
}

func randSnapshot(rng *rand.Rand) walSnapshot {
	s := walSnapshot{
		Session: randSrc(rng), Lateness: randF64(rng), MaxSpeed: randF64(rng), Lanes: 1 + rng.Intn(maxLanes),
		ChunkIdx: rng.Uint64(), ClientSeq: uint64(rng.Intn(3)),
		Ingested: randInt(rng), Emitted: randInt(rng), Late: randInt(rng), Outliers: randInt(rng),
	}
	if n := randLen(rng, 5); n >= 0 {
		s.SrcIDs = make([]string, n)
		for i := range s.SrcIDs {
			s.SrcIDs[i] = randSrc(rng)
		}
	}
	if n := randLen(rng, 40); n >= 0 {
		s.Results = make([]streamResult, n)
		for i := range s.Results {
			r := streamResult{Source: randSrc(rng), T: randF64(rng), X: randF64(rng), Y: randF64(rng)}
			switch rng.Intn(3) {
			case 0:
				e := 0
				r.Edge = &e
			case 1:
				e := randInt(rng)
				r.Edge = &e
			}
			s.Results[i] = r
		}
	}
	if n := randLen(rng, 4); n >= 0 {
		s.Sources = make([]walSource, n)
		for i := range s.Sources {
			ws := walSource{Src: randSrc(rng), HasLast: rng.Intn(2) == 0, Last: randPoint(rng)}
			ws.Re = stream.ReordererState[trajectory.Point]{
				Lateness: randF64(rng), Watermark: randF64(rng), Late: randInt(rng), Emitted: randInt(rng),
			}
			if k := randLen(rng, 6); k >= 0 {
				ws.Re.Buf = make([]stream.Event[trajectory.Point], k)
				for j := range ws.Re.Buf {
					ws.Re.Buf[j] = stream.Event[trajectory.Point]{Time: randF64(rng), Value: randPoint(rng)}
				}
			}
			if rng.Intn(2) == 0 {
				ws.Matcher = randMatcher(rng)
			}
			s.Sources[i] = ws
		}
	}
	return s
}

func encodeChunk(c walChunk) []byte { return c.appendTo(nil, new(srcDict)) }

func encodeSnapshot(s walSnapshot) []byte { return s.appendTo(nil, new(srcDict)) }

func decodeV1(t testing.TB, payload []byte, v walRecord) {
	t.Helper()
	d := walDecoder{b: payload}
	v.decode(&d)
	if err := d.finish(); err != nil {
		t.Fatalf("decode of a fresh encoding: %v", err)
	}
}

// TestWALCodecRoundTrip is the codec's property test: decode(encode(x))
// equals x bit for bit across random states, and re-encoding the
// decoded value reproduces the payload byte for byte.
func TestWALCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 400; i++ {
		o := walOpen{Session: randSrc(rng), Lateness: randF64(rng), MaxSpeed: randF64(rng), Lanes: 1 + rng.Intn(maxLanes)}
		var o2 walOpen
		decodeV1(t, o.appendTo(nil), &o2)
		requireSame(t, "open", o2, o)

		dr := walDrain{Session: randSrc(rng), Flush: rng.Intn(2) == 0}
		var dr2 walDrain
		decodeV1(t, dr.appendTo(nil), &dr2)
		requireSame(t, "drain", dr2, dr)

		cl := walClose{Session: randSrc(rng), Evicted: rng.Intn(2) == 0}
		var cl2 walClose
		decodeV1(t, cl.appendTo(nil), &cl2)
		requireSame(t, "close", cl2, cl)

		c := walChunk{Session: randSrc(rng), ChunkIdx: rng.Uint64(), ClientSeq: uint64(rng.Intn(2)), Events: randEvents(rng)}
		p := encodeChunk(c)
		var c2 walChunk
		decodeV1(t, p, &c2)
		requireSame(t, "chunk", c2, c)
		if !bytes.Equal(encodeChunk(c2), p) {
			t.Fatal("chunk: re-encoding the decoded value changed the payload")
		}

		s := randSnapshot(rng)
		p = encodeSnapshot(s)
		var s2 walSnapshot
		decodeV1(t, p, &s2)
		requireSame(t, "snapshot", s2, s)
		if !bytes.Equal(encodeSnapshot(s2), p) {
			t.Fatal("snapshot: re-encoding the decoded value changed the payload")
		}
	}
}

// TestWALCodecRejectsDamage: every strict prefix of a valid payload,
// the payload with a byte appended, and a well-framed payload with a
// field out of range all decode to an error.
func TestWALCodecRejectsDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randSnapshot(rng)
	for len(s.Sources) == 0 || len(s.Results) == 0 {
		s = randSnapshot(rng)
	}
	payloads := map[string][]byte{
		"open":     walOpen{Session: "st-000001", Lateness: 2, MaxSpeed: 50, Lanes: 3}.appendTo(nil),
		"drain":    walDrain{Session: "st-000001", Flush: true}.appendTo(nil),
		"close":    walClose{Session: "st-000001"}.appendTo(nil),
		"chunk":    encodeChunk(walChunk{Session: "st-000001", ChunkIdx: 3, Events: []walEvent{{Src: "a", T: 1}, {Src: "b", X: 2}}}),
		"snapshot": encodeSnapshot(s),
	}
	decoders := map[string]func() walRecord{
		"open": func() walRecord { return new(walOpen) }, "drain": func() walRecord { return new(walDrain) },
		"close": func() walRecord { return new(walClose) }, "chunk": func() walRecord { return new(walChunk) },
		"snapshot": func() walRecord { return new(walSnapshot) },
	}
	for kind, p := range payloads {
		for n := 0; n < len(p); n++ {
			if err := decodeRec(codecV1, p[:n], decoders[kind]()); err == nil {
				t.Fatalf("%s: %d-byte prefix of %d decoded without error", kind, n, len(p))
			}
		}
		if err := decodeRec(codecV1, append(p[:len(p):len(p)], 0), decoders[kind]()); err == nil {
			t.Fatalf("%s: trailing byte decoded without error", kind)
		}
	}
	// Well-framed payloads whose fields are out of range.
	for name, bad := range map[string]struct {
		p []byte
		v walRecord
	}{
		"no lanes":       {walOpen{Session: "s", Lanes: 0}.appendTo(nil), new(walOpen)},
		"too many lanes": {walOpen{Session: "s", Lanes: maxLanes + 1}.appendTo(nil), new(walOpen)},
		"bool 2":         {[]byte("\x01s\x02"), new(walDrain)},
		"src index past the dict": {
			append([]byte("\x01s\x00\x00\x01\x01a\x01\x01"), make([]byte, 24)...), new(walChunk)},
	} {
		if err := decodeRec(codecV1, bad.p, bad.v); err == nil {
			t.Fatalf("%s: decoded without error", name)
		}
	}
}

// checkDecoder decodes arbitrary bytes with v's decoder: it must not
// panic, and a payload it accepts must survive a round trip.
func checkDecoder[T any, P interface {
	*T
	walRecord
}](t *testing.T, payload []byte, encode func(T) []byte) {
	var v T
	if decodeRec(codecV1, payload, P(&v)) != nil {
		return
	}
	var again T
	decodeV1(t, encode(v), P(&again))
	requireSame(t, fmt.Sprintf("%T", v), again, v)
}

func FuzzDecodeChunk(f *testing.F) {
	f.Add(encodeChunk(walChunk{Session: "st-000001", ChunkIdx: 1, ClientSeq: 1, Events: []walEvent{{Src: "car-a", T: 1, X: 10, Y: 5}, {Src: "car-b", T: 0.5, X: 8, Y: 100}}}))
	f.Add(encodeChunk(walChunk{Session: "st-000002"}))
	everywhere := extent{rect: geo.Rect{Min: geo.Pt(math.Inf(-1), math.Inf(-1)), Max: geo.Pt(math.Inf(1), math.Inf(1))}, minT: math.Inf(-1), maxT: math.Inf(1)}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDecoder(t, payload, encodeChunk)
		// The history scan's lazy decoder agrees with the full one.
		var c walChunk
		full := decodeRec(recChunk, payload, &c)
		var h chunkHead
		var srcs []string
		var seen []walEvent
		err := windowChunk(payload, everywhere, &h, &srcs, func(e walEvent) error {
			seen = append(seen, e)
			return nil
		})
		if (err == nil) != (full == nil) {
			t.Fatalf("window scan error %v, full decode error %v", err, full)
		}
		if full == nil {
			var want []walEvent
			for _, e := range c.Events {
				if everywhere.holds(e.T, e.X, e.Y) { // NaN never matches
					want = append(want, e)
				}
			}
			requireSame(t, "window scan", seen, want)
		}
	})
}

func FuzzDecodeSnapshot(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		f.Add(encodeSnapshot(randSnapshot(rng)))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDecoder(t, payload, encodeSnapshot)
	})
}

// FuzzDecodeOpenDrainClose covers the three small records; kind picks
// the decoder.
func FuzzDecodeOpenDrainClose(f *testing.F) {
	f.Add(byte(0), walOpen{Session: "st-000001", Lateness: 5, MaxSpeed: 20, Lanes: 4}.appendTo(nil))
	f.Add(byte(1), walDrain{Session: "st-000001", Flush: true}.appendTo(nil))
	f.Add(byte(2), walClose{Session: "st-000001", Evicted: true}.appendTo(nil))
	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		switch kind % 3 {
		case 0:
			checkDecoder(t, payload, func(o walOpen) []byte { return o.appendTo(nil) })
		case 1:
			checkDecoder(t, payload, func(d walDrain) []byte { return d.appendTo(nil) })
		case 2:
			checkDecoder(t, payload, func(c walClose) []byte { return c.appendTo(nil) })
		}
	})
}

// benchChunk is a feed-shaped chunk: 64 events over 4 sources.
func benchChunk() walChunk {
	rng := rand.New(rand.NewSource(64))
	c := walChunk{Session: "st-000001", ChunkIdx: 1234, ClientSeq: 1234}
	for i := 0; i < 64; i++ {
		c.Events = append(c.Events, walEvent{
			Src: fmt.Sprintf("veh-%04d", i%4), T: 1.7e9 + float64(i/4), X: rng.Float64() * 5000, Y: rng.Float64() * 5000,
		})
	}
	return c
}

// benchSnapshot is a session checkpoint with 4 sources, each holding
// 8 reorder-buffered events and a 6-step matcher lattice, and 64
// undrained results.
func benchSnapshot() walSnapshot {
	rng := rand.New(rand.NewSource(65))
	s := walSnapshot{Session: "st-000001", Lateness: 5, MaxSpeed: 30, Lanes: 4, ChunkIdx: 1234, ClientSeq: 1234, Ingested: 78976, Emitted: 78900}
	for i := 0; i < 64; i++ {
		e := rng.Intn(5000)
		s.Results = append(s.Results, streamResult{Source: fmt.Sprintf("veh-%04d", i%4), T: 1.7e9 + float64(i), X: rng.Float64() * 5000, Y: rng.Float64() * 5000, Edge: &e})
	}
	for k := 0; k < 4; k++ {
		src := fmt.Sprintf("veh-%04d", k)
		s.SrcIDs = append(s.SrcIDs, src)
		ws := walSource{Src: src, HasLast: true, Last: randPoint(rng), Matcher: &uncertain.MatcherState{}}
		ws.Re = stream.ReordererState[trajectory.Point]{Lateness: 5, Watermark: 1.7e9 + 60}
		for j := 0; j < 8; j++ {
			ws.Re.Buf = append(ws.Re.Buf, stream.Event[trajectory.Point]{Time: 1.7e9 + float64(j), Value: trajectory.Point{T: 1.7e9 + float64(j), Pos: geo.Pt(rng.Float64()*5000, rng.Float64()*5000)}})
		}
		m := ws.Matcher
		for j := 0; j < 6; j++ {
			m.Pts = append(m.Pts, trajectory.Point{T: 1.7e9 + float64(j), Pos: geo.Pt(rng.Float64()*5000, rng.Float64()*5000)})
			var cs []roadnet.Snap
			var lp []float64
			var bk []int
			for c := 0; c < 4; c++ {
				cs = append(cs, roadnet.Snap{Edge: roadnet.EdgeID(rng.Intn(5000)), Param: rng.Float64(), Pos: geo.Pt(rng.Float64()*5000, rng.Float64()*5000), Dist: rng.Float64() * 30})
				lp = append(lp, -rng.Float64()*50)
				bk = append(bk, rng.Intn(4))
			}
			m.Cands, m.Logp, m.Back = append(m.Cands, cs), append(m.Logp, lp), append(m.Back, bk)
		}
		s.Sources = append(s.Sources, ws)
	}
	return s
}

// BenchmarkWALCodec times one record's encode and decode, next to the
// gob decode that legacy (version 0) records still take on replay.
func BenchmarkWALCodec(b *testing.B) {
	chunk, snap := benchChunk(), benchSnapshot()
	for _, bc := range []struct {
		name   string
		encode func(*srcDict, []byte) []byte
		v      any
		fresh  func() walRecord
	}{
		{"chunk", func(d *srcDict, buf []byte) []byte { return chunk.appendTo(buf, d) }, chunk, func() walRecord { return new(walChunk) }},
		{"snapshot", func(d *srcDict, buf []byte) []byte { return snap.appendTo(buf, d) }, snap, func() walRecord { return new(walSnapshot) }},
	} {
		var dict srcDict
		payload := bc.encode(&dict, nil)
		var legacy bytes.Buffer
		if err := gob.NewEncoder(&legacy).Encode(bc.v); err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			buf := make([]byte, 0, len(payload))
			for i := 0; i < b.N; i++ {
				buf = bc.encode(&dict, buf[:0])
			}
		})
		b.Run(bc.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				if err := decodeRec(codecV1, payload, bc.fresh()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bc.name+"/decode-gob", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(legacy.Len()))
			for i := 0; i < b.N; i++ {
				if err := decodeRec(0, legacy.Bytes(), bc.fresh()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
