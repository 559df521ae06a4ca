package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"
)

// encodeFrame returns the wire bytes of one frame.
func encodeFrame(tag int, sentAt time.Duration, payload []byte) []byte {
	b := make([]byte, frameHeader, frameHeader+len(payload))
	binary.LittleEndian.PutUint64(b[0:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(b[8:], uint64(int64(tag)))
	binary.LittleEndian.PutUint64(b[16:], uint64(int64(sentAt)))
	return append(b, payload...)
}

// forgedHeader is a frame header claiming a maxFrame-byte payload.
func forgedHeader() []byte {
	b := encodeFrame(3, 0, nil)
	binary.LittleEndian.PutUint64(b[0:], maxFrame)
	return b
}

// TestReadFrameForgedLength pins the hostile-length bound: a header
// claiming 2 GiB followed by EOF allocates about one chunk and fails,
// and a length beyond maxFrame fails before any payload is read.
func TestReadFrameForgedLength(t *testing.T) {
	hdr := make([]byte, frameHeader)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(forgedHeader()), hdr, nil, maxFrame)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Fatalf("forged length then EOF: err = %v, want EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*frameChunk {
		t.Fatalf("forged 2 GiB length cost %d bytes of allocation, want at most ~%d", got, frameChunk)
	}

	over := forgedHeader()
	binary.LittleEndian.PutUint64(over[0:], maxFrame+1)
	var big *frameSizeError
	if _, err := readFrame(bytes.NewReader(over), hdr, nil, maxFrame); !errors.As(err, &big) || big.n != maxFrame+1 {
		t.Fatalf("length beyond maxFrame: err = %v, want a frameSizeError", err)
	}
}

// TestReadFrameChunked reads payloads larger than a chunk, into no
// buffer, a short one and a big enough one, and checks every byte; the
// fitting buffer must be filled in place.
func TestReadFrameChunked(t *testing.T) {
	hdr := make([]byte, frameHeader)
	for _, n := range []int{1, frameChunk - 1, frameChunk, frameChunk + 1, 3*frameChunk + 17} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*7 + n)
		}
		wire := encodeFrame(n, 42, payload)
		for _, buf := range [][]byte{nil, make([]byte, 10), make([]byte, n+5)} {
			f, err := readFrame(bytes.NewReader(wire), hdr, buf, maxFrame)
			if err != nil {
				t.Fatalf("n=%d cap=%d: %v", n, cap(buf), err)
			}
			if f.tag != n || f.sentAt != 42 || !bytes.Equal(f.data, payload) {
				t.Fatalf("n=%d cap=%d: frame decoded wrong", n, cap(buf))
			}
			if cap(buf) >= n && &f.data[0] != &buf[:1][0] {
				t.Fatalf("n=%d: payload not read into the %d-byte buffer", n, cap(buf))
			}
			if cap(f.data) != n && cap(buf) < n {
				t.Fatalf("n=%d cap=%d: grown buffer has capacity %d, want exactly %d", n, cap(buf), cap(f.data), n)
			}
		}
	}
}

// FuzzReadFrame decodes arbitrary bytes as a frame stream. Whatever the
// input, reading must not panic, a decoded frame must be exactly the
// bytes its header announced, and a buffer grown for it must hold
// exactly its payload.
func FuzzReadFrame(f *testing.F) {
	valid := encodeFrame(1, 1234, []byte("a valid payload"))
	f.Add(valid)
	f.Add(valid[:len(valid)-4]) // truncated payload
	f.Add(forgedHeader())       // forged 2 GiB length, then EOF
	f.Fuzz(func(t *testing.T, in []byte) {
		hdr := make([]byte, frameHeader)
		r := bytes.NewReader(in)
		for off := 0; ; {
			fr, err := readFrame(r, hdr, nil, maxFrame)
			var big *frameSizeError
			if errors.As(err, &big) {
				return
			}
			if err != nil {
				if r.Len() != 0 {
					t.Fatalf("failed with %d unread bytes: %v", r.Len(), err)
				}
				return
			}
			n := len(fr.data)
			if want := binary.LittleEndian.Uint64(in[off:]); uint64(n) != want {
				t.Fatalf("frame at %d: %d payload bytes, header says %d", off, n, want)
			}
			if !bytes.Equal(fr.data, in[off+frameHeader:off+frameHeader+n]) {
				t.Fatalf("frame at %d: payload differs from the wire", off)
			}
			if cap(fr.data) > n {
				t.Fatalf("frame at %d: %d-byte payload in a %d-byte buffer", off, n, cap(fr.data))
			}
			off += frameHeader + n
		}
	})
}

// TestProcFrameRecycling runs many Alltoallv and AllgatherBytes rounds
// over real sockets with payloads that grow past a chunk and shrink
// again, so received frames are recycled into payloads of other sizes,
// and checks every received byte. Every few rounds an AllreduceI64
// pushes 8-byte frames through the same recycled buffers.
func TestProcFrameRecycling(t *testing.T) {
	const size, rounds = 3, 60
	fill := func(round, src, dst, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(round*31 + src*7 + dst*3 + i)
		}
		return b
	}
	sizeOf := func(round, src, dst int) int {
		switch round % 6 {
		case 0:
			return 0
		case 3:
			return frameChunk + 1000*src + dst // past a chunk
		default:
			return (round*997 + src*131 + dst*17) % 4096
		}
	}
	runProcWorld(t, size, func(c *Comm) {
		me := c.Rank()
		for round := 0; round < rounds; round++ {
			bufs := make([][]byte, size)
			for dst := range bufs {
				bufs[dst] = fill(round, me, dst, sizeOf(round, me, dst))
			}
			got := c.Alltoallv(bufs)
			for src, b := range got {
				if want := fill(round, src, me, sizeOf(round, src, me)); !bytes.Equal(b, want) {
					panic(fmt.Sprintf("round %d: Alltoallv payload from rank %d corrupt (%d bytes, want %d)", round, src, len(b), len(want)))
				}
			}
			n := sizeOf(round+1, me, me)
			parts := c.AllgatherBytes(fill(round, me, size, n))
			for src, b := range parts {
				if want := fill(round, src, size, sizeOf(round+1, src, src)); !bytes.Equal(b, want) {
					panic(fmt.Sprintf("round %d: AllgatherBytes part of rank %d corrupt", round, src))
				}
			}
			if round%10 == 5 {
				v := int64(round)<<40 | int64(me+1)<<20
				want := int64(size*round)<<40 | int64(size*(size+1)/2)<<20
				if got := c.AllreduceI64(v, OpSum); got != want {
					panic(fmt.Sprintf("round %d: AllreduceI64 = %#x, want %#x", round, got, want))
				}
			}
		}
	})
}

// hostileHellos are hello payloads a peer that is not a dinfomap rank
// could send: empty, shorter than the fixed part, and one whose version
// length claims 1 MiB.
func hostileHellos() [][]byte {
	lying := encodeHello(2, 1, "v1")
	binary.LittleEndian.PutUint64(lying[helloFixed-8:], 1<<20)
	return [][]byte{{}, make([]byte, 8), lying}
}

// FuzzHello decodes arbitrary bytes as a hello payload. Whatever the
// input, decoding must not panic, a rejection must be a
// handshakeMismatch, and an accepted hello must re-encode to exactly
// the input.
func FuzzHello(f *testing.F) {
	f.Add(encodeHello(4, 3, "dinfomap v1"))
	for _, h := range hostileHellos() {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		size, rank, version, err := decodeHello(in)
		if err != nil {
			var mismatch *handshakeMismatch
			if !errors.As(err, &mismatch) {
				t.Fatalf("rejection %v is not a handshakeMismatch", err)
			}
			return
		}
		if !bytes.Equal(encodeHello(size, rank, version), in) {
			t.Fatalf("hello (%d, %d, %q) does not re-encode to its input", size, rank, version)
		}
	})
}
