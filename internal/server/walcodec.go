package server

// The WAL payload codec. Every record the server writes is an explicit
// little-endian binary payload; the record's type byte, which the
// store frame's CRC covers, names both the record kind (low nibble)
// and the payload codec version (high nibble). Version 1 is this
// codec. Version 0 (type codes 1..5) is the gob encoding that earlier
// builds wrote; decodeLegacy still reads it, so older data directories
// replay, but nothing writes it. A layout
// change takes the next version nibble and keeps the old decoder.
//
// Primitives: uvarint and varint are encoding/binary's (varint is
// zig-zag, used for every Go int); str is uvarint length then bytes;
// bool is one byte, 0 or 1; "n × X" is a uvarint count then n X's, and
// n = 0 decodes as a nil slice. Floats round-trip bit for bit (-0,
// ±Inf) in one of two forms. f64 is math.Float64bits as a fixed
// little-endian u64: chunk events use it, so a history scan tests
// t, x and y in place. rf64 is the uvarint of those bits byte-reversed
// (gob's float form): 1–4 bytes for integral or short-decimal values,
// at most 10; every other float uses it, because snapshots, which
// carry a session's undrained results and are rewritten whole on each
// checkpoint and compaction, are laid out for size. A dict is the
// distinct source ids of a record's rows, n × str in first-appearance
// order, and each row names its source by uvarint index into it.
//
//	0x11 open     str session | rf64 lateness | rf64 maxspeed | varint lanes
//	0x12 chunk    str session | uvarint chunkIdx | uvarint clientSeq | dict |
//	              n × (uvarint src | f64 t | f64 x | f64 y)
//	0x13 drain    str session | bool flush
//	0x14 close    str session | bool evicted
//	0x15 snapshot str session | rf64 lateness | rf64 maxspeed | varint lanes |
//	              uvarint chunkIdx | uvarint clientSeq | n × str srcID |
//	              dict | n × result | varint ingested | varint emitted |
//	              varint late | varint outliers | n × source
//
//	result    uvarint src | rf64 t | rf64 x | rf64 y | bool hasEdge [| varint edge]
//	source    str src | reorderer | bool hasLast | point last |
//	          bool hasMatcher [| matcher]
//	reorderer rf64 lateness | n × (rf64 time | point) | rf64 watermark |
//	          varint late | varint emitted
//	matcher   n × point | n × (n × snap) | n × (n × rf64) | n × (n × varint)
//	snap      varint edge | rf64 param | rf64 x | rf64 y | rf64 dist
//	point     rf64 t | rf64 x | rf64 y
//
// Decoding is bounds-checked: every slice length is checked against
// the bytes left in the payload before anything is allocated for it,
// and a short payload, an out-of-range field, or trailing bytes is an
// error, never a panic.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"sidq/internal/geo"
	"sidq/internal/roadnet"
	"sidq/internal/stream"
	"sidq/internal/trajectory"
	"sidq/internal/uncertain"
)

// WAL record types: codec version 1 in the high nibble, record kind in
// the low one.
const (
	codecV1 byte = 0x10

	recSessionOpen  = codecV1 | 1
	recChunk        = codecV1 | 2
	recDrain        = codecV1 | 3
	recSessionClose = codecV1 | 4
	recSnapshot     = codecV1 | 5
)

// maxLanes bounds a session's lane count, at open and in a decoded
// record alike.
const maxLanes = 64

var (
	errShortPayload = errors.New("wal: payload truncated")
	errBadField     = errors.New("wal: field out of range")
)

// decodeLegacy reads a version-0 record: a gob stream of the same
// DTO. Read-only — nothing writes these records any more.
func decodeLegacy(payload []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// walRecord is a WAL payload DTO the binary codec decodes.
type walRecord interface {
	decode(*walDecoder)
}

// decodeRec decodes one record payload into v with the codec its type
// byte names.
func decodeRec(typ byte, payload []byte, v walRecord) error {
	if typ&0xf0 == 0 {
		return decodeLegacy(payload, v)
	}
	d := walDecoder{b: payload}
	v.decode(&d)
	return d.finish()
}

// --- encoding -------------------------------------------------------

func appendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendRF64(b []byte, f float64) []byte {
	return binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(f)))
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendLen(b []byte, n int) []byte { return binary.AppendUvarint(b, uint64(n)) }

func appendPoint(b []byte, p trajectory.Point) []byte {
	return appendRF64(appendRF64(appendRF64(b, p.T), p.Pos.X), p.Pos.Y)
}

// appendSlice writes n × X, each element by elem.
func appendSlice[T any](b []byte, s []T, elem func([]byte, T) []byte) []byte {
	b = appendLen(b, len(s))
	for _, v := range s {
		b = elem(b, v)
	}
	return b
}

func (o walOpen) appendTo(b []byte) []byte {
	b = appendStr(b, o.Session)
	b = appendRF64(b, o.Lateness)
	b = appendRF64(b, o.MaxSpeed)
	return appendInt(b, o.Lanes)
}

func (d walDrain) appendTo(b []byte) []byte {
	return appendBool(appendStr(b, d.Session), d.Flush)
}

func (c walClose) appendTo(b []byte) []byte {
	return appendBool(appendStr(b, c.Session), c.Evicted)
}

// srcDict is a reusable dict under construction: the distinct sources
// in first-appearance order and each row's index into them.
type srcDict struct {
	srcs []string
	pos  map[string]int // srcs index of each source
	row  []int
}

// add files one row's source.
func (d *srcDict) add(src string) {
	i, ok := d.pos[src]
	if !ok {
		if d.pos == nil {
			d.pos = make(map[string]int)
		}
		i = len(d.srcs)
		d.srcs = append(d.srcs, src)
		d.pos[src] = i
	}
	d.row = append(d.row, i)
}

// reset empties the dict, dropping its references to source strings
// (they may alias a request body).
func (d *srcDict) reset() {
	clear(d.srcs)
	d.srcs, d.row = d.srcs[:0], d.row[:0]
	clear(d.pos)
}

func (d *srcDict) appendTo(b []byte) []byte { return appendSlice(b, d.srcs, appendStr) }

func (c *walChunk) appendTo(b []byte, dict *srcDict) []byte {
	dict.reset()
	for _, e := range c.Events {
		dict.add(e.Src)
	}
	b = appendStr(b, c.Session)
	b = binary.AppendUvarint(b, c.ChunkIdx)
	b = binary.AppendUvarint(b, c.ClientSeq)
	b = dict.appendTo(b)
	b = appendLen(b, len(c.Events))
	for i, e := range c.Events {
		b = binary.AppendUvarint(b, uint64(dict.row[i]))
		b = appendF64(appendF64(appendF64(b, e.T), e.X), e.Y)
	}
	return b
}

func (s *walSnapshot) appendTo(b []byte, dict *srcDict) []byte {
	b = appendStr(b, s.Session)
	b = appendRF64(b, s.Lateness)
	b = appendRF64(b, s.MaxSpeed)
	b = appendInt(b, s.Lanes)
	b = binary.AppendUvarint(b, s.ChunkIdx)
	b = binary.AppendUvarint(b, s.ClientSeq)
	b = appendSlice(b, s.SrcIDs, appendStr)
	dict.reset()
	for _, r := range s.Results {
		dict.add(r.Source)
	}
	b = dict.appendTo(b)
	b = appendLen(b, len(s.Results))
	for i, r := range s.Results {
		b = binary.AppendUvarint(b, uint64(dict.row[i]))
		b = appendRF64(appendRF64(appendRF64(b, r.T), r.X), r.Y)
		b = appendBool(b, r.Edge != nil)
		if r.Edge != nil {
			b = appendInt(b, *r.Edge)
		}
	}
	b = appendInt(b, s.Ingested)
	b = appendInt(b, s.Emitted)
	b = appendInt(b, s.Late)
	b = appendInt(b, s.Outliers)
	return appendSlice(b, s.Sources, appendSource)
}

func appendSource(b []byte, ws walSource) []byte {
	b = appendStr(b, ws.Src)
	b = appendRF64(b, ws.Re.Lateness)
	b = appendSlice(b, ws.Re.Buf, func(b []byte, e stream.Event[trajectory.Point]) []byte {
		return appendPoint(appendRF64(b, e.Time), e.Value)
	})
	b = appendRF64(b, ws.Re.Watermark)
	b = appendInt(b, ws.Re.Late)
	b = appendInt(b, ws.Re.Emitted)
	b = appendBool(b, ws.HasLast)
	b = appendPoint(b, ws.Last)
	b = appendBool(b, ws.Matcher != nil)
	if m := ws.Matcher; m != nil {
		b = appendSlice(b, m.Pts, appendPoint)
		b = appendSlice(b, m.Cands, func(b []byte, cs []roadnet.Snap) []byte {
			return appendSlice(b, cs, func(b []byte, s roadnet.Snap) []byte {
				b = appendInt(b, int(s.Edge))
				return appendRF64(appendRF64(appendRF64(appendRF64(b, s.Param), s.Pos.X), s.Pos.Y), s.Dist)
			})
		})
		b = appendSlice(b, m.Logp, func(b []byte, lp []float64) []byte { return appendSlice(b, lp, appendRF64) })
		b = appendSlice(b, m.Back, func(b []byte, bk []int) []byte { return appendSlice(b, bk, appendInt) })
	}
	return b
}

// walScratch is the reusable encode state of one persist: the payload
// buffer, a chunk's events, and the dict.
type walScratch struct {
	buf  []byte
	evs  []walEvent
	dict srcDict
}

var walScratchPool = sync.Pool{New: func() any { return new(walScratch) }}

func getWalScratch() *walScratch { return walScratchPool.Get().(*walScratch) }

// put returns s to the pool without its references to source strings.
func (s *walScratch) put() {
	clear(s.evs)
	s.evs = s.evs[:0]
	s.dict.reset()
	walScratchPool.Put(s)
}

// --- decoding -------------------------------------------------------

// Minimum encoded sizes, in bytes, of the elements whose counts the
// decoder checks against the remaining payload.
const (
	minStr       = 1                             // uvarint length
	minPoint     = 3                             // rf64 t, x, y
	minChunkEv   = 1 + 3*8                       // src, f64 t, x, y
	minResult    = 1 + 3 + 1                     // src, rf64 t, x, y, hasEdge
	minReordered = 1 + minPoint                  // time, point
	minSnap      = 1 + 4                         // edge, param, x, y, dist
	minSource    = minStr + 5 + 1 + minPoint + 1 // src, reorderer, hasLast, last, hasMatcher
)

// walDecoder reads a binary payload front to back. The first failure
// sticks: later reads return zero values, and finish reports it.
type walDecoder struct {
	b   []byte
	err error
}

func (d *walDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// finish reports the first failure, or trailing bytes past the record.
func (d *walDecoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) > 0 {
		return fmt.Errorf("wal: %d trailing payload bytes", len(d.b))
	}
	return nil
}

func (d *walDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(errShortPayload)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *walDecoder) int() int {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(errShortPayload)
		return 0
	}
	d.b = d.b[n:]
	if int64(int(v)) != v {
		d.fail(errBadField)
		return 0
	}
	return int(v)
}

// count reads a slice length and rejects one whose elements, at least
// minSize bytes each, cannot fit in the rest of the payload.
func (d *walDecoder) count(minSize int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/minSize) {
		d.fail(errShortPayload)
		return 0
	}
	return int(n)
}

func (d *walDecoder) f64() float64 {
	if len(d.b) < 8 {
		d.fail(errShortPayload)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *walDecoder) rf64() float64 {
	return math.Float64frombits(bits.ReverseBytes64(d.uvarint()))
}

func (d *walDecoder) bool() bool {
	if len(d.b) < 1 {
		d.fail(errShortPayload)
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	if v > 1 {
		d.fail(errBadField)
	}
	return v == 1
}

// bytes reads a str without copying: the result aliases the payload.
func (d *walDecoder) bytes() []byte {
	n := d.count(1)
	s := d.b[:n:n]
	d.b = d.b[n:]
	return s
}

func (d *walDecoder) str() string { return string(d.bytes()) }

// decodeSlice reads n × X, each element by elem, where an element
// takes at least minSize bytes; n = 0 decodes as nil.
func decodeSlice[T any](d *walDecoder, minSize int, elem func() T) []T {
	n := d.count(minSize)
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = elem()
	}
	return s
}

// dict reads a dict into dst[:0] without copying the source ids.
func (d *walDecoder) dict(dst [][]byte) [][]byte {
	dst = dst[:0]
	for i, n := 0, d.count(minStr); i < n; i++ {
		dst = append(dst, d.bytes())
	}
	return dst
}

// src reads a row's dict index; check d.err before using it.
func (d *walDecoder) src(nsrc int) int {
	i := d.uvarint()
	if i >= uint64(nsrc) {
		d.fail(errBadField)
		return 0
	}
	return int(i)
}

// dictStrings copies a dict's source ids into strings.
func dictStrings(dict [][]byte) []string {
	out := make([]string, len(dict))
	for i, s := range dict {
		out[i] = string(s)
	}
	return out
}

func (d *walDecoder) lanes() int {
	n := d.int()
	if n < 1 || n > maxLanes {
		d.fail(errBadField)
	}
	return n
}

func (d *walDecoder) point() trajectory.Point {
	t, x, y := d.rf64(), d.rf64(), d.rf64()
	return trajectory.Point{T: t, Pos: geo.Pt(x, y)}
}

func (o *walOpen) decode(d *walDecoder) {
	o.Session = d.str()
	o.Lateness = d.rf64()
	o.MaxSpeed = d.rf64()
	o.Lanes = d.lanes()
}

func (dr *walDrain) decode(d *walDecoder) {
	dr.Session = d.str()
	dr.Flush = d.bool()
}

func (c *walClose) decode(d *walDecoder) {
	c.Session = d.str()
	c.Evicted = d.bool()
}

// chunkHead is a binary chunk's header and dict, decoded without
// copying: session and srcs alias the payload, and the n events follow
// in the decoder.
type chunkHead struct {
	session        []byte
	idx, clientSeq uint64
	srcs           [][]byte
	n              int
}

func (d *walDecoder) chunkHead(h *chunkHead) {
	h.session = d.bytes()
	h.idx = d.uvarint()
	h.clientSeq = d.uvarint()
	h.srcs = d.dict(h.srcs)
	h.n = d.count(minChunkEv)
}

// chunkEvent reads one chunk event; check d.err before using src.
func (d *walDecoder) chunkEvent(nsrc int) (src int, t, x, y float64) {
	src = d.src(nsrc)
	t, x, y = d.f64(), d.f64(), d.f64()
	return
}

func (c *walChunk) decode(d *walDecoder) {
	var h chunkHead
	d.chunkHead(&h)
	c.Session, c.ChunkIdx, c.ClientSeq = string(h.session), h.idx, h.clientSeq
	srcs := dictStrings(h.srcs)
	c.Events = nil
	if h.n > 0 {
		c.Events = make([]walEvent, h.n)
	}
	for i := range c.Events {
		s, t, x, y := d.chunkEvent(len(srcs))
		if d.err != nil {
			return
		}
		c.Events[i] = walEvent{Src: srcs[s], T: t, X: x, Y: y}
	}
}

// windowChunk passes the events of a binary chunk payload that lie
// inside q to fn, in order. Each event's fixed-width t, x and y are
// tested before its source id is built, so an event outside q costs
// no allocation; h and srcs are scratch reused across payloads.
func windowChunk(payload []byte, q extent, h *chunkHead, srcs *[]string, fn func(walEvent) error) error {
	d := walDecoder{b: payload}
	d.chunkHead(h)
	*srcs = append((*srcs)[:0], make([]string, len(h.srcs))...)
	for i := 0; i < h.n; i++ {
		s, t, x, y := d.chunkEvent(len(h.srcs))
		if d.err != nil {
			break
		}
		if !q.holds(t, x, y) {
			continue
		}
		name := &(*srcs)[s]
		if *name == "" {
			*name = string(h.srcs[s])
		}
		if err := fn(walEvent{Src: *name, T: t, X: x, Y: y}); err != nil {
			return err
		}
	}
	return d.finish()
}

func (s *walSnapshot) decode(d *walDecoder) {
	s.Session = d.str()
	s.Lateness = d.rf64()
	s.MaxSpeed = d.rf64()
	s.Lanes = d.lanes()
	s.ChunkIdx = d.uvarint()
	s.ClientSeq = d.uvarint()
	s.SrcIDs = decodeSlice(d, minStr, d.str)
	srcs := dictStrings(d.dict(nil))
	s.Results = decodeSlice(d, minResult, func() streamResult {
		si := d.src(len(srcs))
		if d.err != nil {
			return streamResult{}
		}
		r := streamResult{Source: srcs[si], T: d.rf64(), X: d.rf64(), Y: d.rf64()}
		if d.bool() {
			e := d.int()
			r.Edge = &e
		}
		return r
	})
	s.Ingested = d.int()
	s.Emitted = d.int()
	s.Late = d.int()
	s.Outliers = d.int()
	s.Sources = decodeSlice(d, minSource, d.source)
}

func (d *walDecoder) source() walSource {
	ws := walSource{Src: d.str()}
	ws.Re.Lateness = d.rf64()
	ws.Re.Buf = decodeSlice(d, minReordered, func() stream.Event[trajectory.Point] {
		t := d.rf64()
		return stream.Event[trajectory.Point]{Time: t, Value: d.point()}
	})
	ws.Re.Watermark = d.rf64()
	ws.Re.Late = d.int()
	ws.Re.Emitted = d.int()
	ws.HasLast = d.bool()
	ws.Last = d.point()
	if d.bool() {
		ws.Matcher = &uncertain.MatcherState{
			Pts: decodeSlice(d, minPoint, d.point),
			Cands: decodeSlice(d, 1, func() []roadnet.Snap {
				return decodeSlice(d, minSnap, func() roadnet.Snap {
					e := roadnet.EdgeID(d.int())
					p, x, y, dist := d.rf64(), d.rf64(), d.rf64(), d.rf64()
					return roadnet.Snap{Edge: e, Param: p, Pos: geo.Pt(x, y), Dist: dist}
				})
			}),
			Logp: decodeSlice(d, 1, func() []float64 { return decodeSlice(d, 1, d.rf64) }),
			Back: decodeSlice(d, 1, func() []int { return decodeSlice(d, 1, d.int) }),
		}
	}
	return ws
}
