package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Encoder builds binary message payloads (little-endian, fixed-width).
// All distributed-algorithm messages in this repository are serialized
// through Encoder/Decoder so byte counters reflect real wire sizes.
type Encoder struct{ buf []byte }

// NewEncoder returns an Encoder, optionally with capacity hint n.
func NewEncoder(n int) *Encoder { return &Encoder{buf: make([]byte, 0, n)} }

// Bytes returns the encoded payload. The slice aliases internal storage.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the current payload size in bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the encoder for reuse without reallocating.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Grow makes room for n more bytes without a later reallocation.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Append appends raw bytes.
func (e *Encoder) Append(b []byte) { e.buf = append(e.buf, b...) }

// PutU64 appends a uint64.
func (e *Encoder) PutU64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// PutU32 appends a uint32.
func (e *Encoder) PutU32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// PutI64 appends an int64.
func (e *Encoder) PutI64(v int64) { e.PutU64(uint64(v)) }

// PutInt appends an int as 64 bits.
func (e *Encoder) PutInt(v int) { e.PutU64(uint64(int64(v))) }

// PutF64 appends a float64.
func (e *Encoder) PutF64(v float64) { e.PutU64(math.Float64bits(v)) }

// PutBool appends a bool as one byte.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Decoder reads payloads produced by Encoder. Reads past the end panic
// (message truncation is a programming error inside the runtime).
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder wraps a payload for reading.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Reset points the decoder at a new payload, reusing the Decoder value
// so steady-state decode loops allocate nothing.
func (d *Decoder) Reset(b []byte) {
	d.buf = b
	d.off = 0
}

// Remaining returns how many unread bytes are left.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) need(n int) {
	if d.off+n > len(d.buf) {
		panic(fmt.Sprintf("mpi: decode past end of %d-byte message (offset %d, need %d)",
			len(d.buf), d.off, n))
	}
}

// U64 reads a uint64.
func (d *Decoder) U64() uint64 {
	d.need(8)
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// U32 reads a uint32.
func (d *Decoder) U32() uint32 {
	d.need(4)
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int encoded as 64 bits.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a one-byte bool.
func (d *Decoder) Bool() bool {
	d.need(1)
	v := d.buf[d.off] != 0
	d.off++
	return v
}
