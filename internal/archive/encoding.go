package archive

// Low-level wire helpers shared by the writer and reader: little-endian
// fixed ints, unsigned varints, length-prefixed blobs, time instants and
// packed bitset words.

import (
	"encoding/binary"
	"math"
	"time"
)

// enc accumulates one section's bytes.
type enc struct{ buf []byte }

func (e *enc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

func (e *enc) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

func (e *enc) blob(b []byte) {
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// instant encodes a time as Unix seconds + nanoseconds. The zero time's
// instant (year 1) round-trips to a time for which IsZero is true, so no
// sentinel is needed; locations are normalized to UTC.
func (e *enc) instant(t time.Time) {
	e.u64(uint64(t.Unix()))
	e.u32(uint32(t.Nanosecond()))
}

// words encodes a packed bitset word slice (trailing zeros already
// trimmed by bitset.Words).
func (e *enc) words(ws []uint64) {
	e.uvarint(uint64(len(ws)))
	for _, w := range ws {
		e.u64(w)
	}
}

// dec walks one section's bytes, latching the first error.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *dec) remaining() int { return len(d.buf) - d.off }

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.remaining() < n {
		d.fail(corruptf("truncated: need %d bytes, have %d", n, d.remaining()))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(corruptf("invalid varint at offset %d", d.off))
		return 0
	}
	d.off += n
	return v
}

// count reads a varint count of items each at least itemSize bytes wide,
// rejecting counts the remaining bytes cannot possibly hold (a fuzz guard
// against giant allocations from a corrupt length).
func (d *dec) count(itemSize int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(math.MaxInt32) || int64(v)*int64(itemSize) > int64(d.remaining()) {
		d.fail(corruptf("count %d exceeds section size", v))
		return 0
	}
	return int(v)
}

func (d *dec) blob() []byte {
	n := d.count(1)
	return d.take(n)
}

func (d *dec) str() string { return string(d.blob()) }

func (d *dec) instant() time.Time {
	sec := int64(d.u64())
	nsec := d.u32()
	if d.err != nil {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

func (d *dec) words() []uint64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = d.u64()
	}
	return ws
}
