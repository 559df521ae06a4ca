package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ReduceOp names a reduction operator for Allreduce.
type ReduceOp int

// Supported reduction operators.
const (
	OpSum ReduceOp = iota
	OpMin
	OpMax
)

// The two-phase window pattern used by every collective below:
//
//	Publish local contribution    (blocks until everyone published)
//	read the returned views, combine into pooled storage
//	ReleaseSlots                  (views dead; transport storage reusable)
//
// On the goroutine backend both phases are barriers over shared slots,
// mirroring MPI's blocking collectives; the proc backend exchanges
// sequence-tagged messages instead, and its release only recycles the
// received frames without synchronizing. Either way
// each collective is billed as exactly two synchronization points, so
// BarrierSyncs counts match bit-for-bit across backends.
//
// Receive-side storage is pooled per Comm: the slices returned by
// AllgatherBytes, Alltoallv, and AllreduceSumF64s are valid only until
// the next collective on the same Comm. Callers must decode (or copy)
// before communicating again — every caller in this repository decodes
// immediately, which is what lets steady-state exchange rounds run at
// zero allocations.

// AllgatherBytes gathers one byte slice from every rank; result[i] is
// rank i's contribution. All ranks receive identical results. The
// result aliases pooled storage: it is valid only until the next
// collective on this Comm.
func (c *Comm) AllgatherBytes(data []byte) [][]byte {
	return c.allgatherSmall(data)
}

// BcastBytes broadcasts root's data to every rank and returns it.
// Non-root ranks pass their (ignored) local value, typically nil.
func (c *Comm) BcastBytes(root int, data []byte) []byte {
	if root < 0 || root >= c.size {
		panic(fmt.Sprintf("mpi: Bcast with invalid root %d", root))
	}
	c.collectiveCost(len(data))
	arrive := c.t.Now()
	src := c.t.BcastSlot(root, data)
	c.noteSync(arrive)
	c.recordSlotMatches()
	cp := make([]byte, len(src))
	copy(cp, src)
	arrive = c.t.Now()
	c.t.ReleaseSlots()
	c.noteSync(arrive)
	return cp
}

// AllreduceF64 reduces one float64 across all ranks with op. The
// reduction runs in fixed rank order on every rank, so all ranks obtain
// the bit-identical result — floating-point reproducibility that
// distributed threshold decisions rely on.
func (c *Comm) AllreduceF64(x float64, op ReduceOp) float64 {
	buf := c.pubBuf(8)
	binary.LittleEndian.PutUint64(buf, math.Float64bits(x))
	parts := c.allgatherSmall(buf)
	acc := math.Float64frombits(binary.LittleEndian.Uint64(parts[0]))
	for _, p := range parts[1:] {
		v := math.Float64frombits(binary.LittleEndian.Uint64(p))
		acc = reduceF64(acc, v, op)
	}
	return acc
}

// AllreduceI64 reduces one int64 across all ranks with op.
func (c *Comm) AllreduceI64(x int64, op ReduceOp) int64 {
	buf := c.pubBuf(8)
	binary.LittleEndian.PutUint64(buf, uint64(x))
	parts := c.allgatherSmall(buf)
	acc := x
	for i, p := range parts {
		if i == c.rank {
			continue
		}
		v := int64(binary.LittleEndian.Uint64(p))
		acc = reduceI64(acc, v, op)
	}
	return acc
}

// AllreduceSumF64s element-wise sums a float64 vector across ranks.
// All ranks must pass vectors of the same length. Summation runs in
// fixed rank order (0..p-1) on every rank, so the result is
// bit-identical everywhere regardless of the calling rank. The result
// aliases pooled storage: it is valid only until the next
// AllreduceSumF64s on this Comm.
func (c *Comm) AllreduceSumF64s(xs []float64) []float64 {
	buf := c.pubBuf(8 * len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	parts := c.allgatherSmall(buf)
	if cap(c.pool.sumOut) < len(xs) {
		c.pool.sumOut = make([]float64, len(xs))
	}
	out := c.pool.sumOut[:len(xs)]
	for i := range out {
		out[i] = 0
	}
	for r, p := range parts {
		if len(p) != len(buf) {
			panic(fmt.Sprintf("mpi: AllreduceSumF64s length mismatch: rank %d sent %d bytes, want %d", r, len(p), len(buf)))
		}
		for i := range out {
			out[i] += math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
		}
	}
	return out
}

// MinLoc is the result of AllreduceMinLoc: the global minimum value and
// the rank that contributed it (lowest rank wins ties, like MPI_MINLOC).
type MinLoc struct {
	Value float64
	Rank  int
}

// AllreduceMinLoc finds the global minimum of val and the rank holding
// it. The paper uses exactly this to pick, for each delegate, the
// candidate move with the global minimum delta-L (Algorithm 2, line 4).
func (c *Comm) AllreduceMinLoc(val float64) MinLoc {
	buf := c.pubBuf(8)
	binary.LittleEndian.PutUint64(buf, math.Float64bits(val))
	parts := c.allgatherSmall(buf)
	best := MinLoc{Value: val, Rank: c.rank}
	for r, p := range parts {
		v := math.Float64frombits(binary.LittleEndian.Uint64(p))
		//dinfomap:float-ok MINLOC tie-break on bit-identical decoded values; lowest rank wins, like MPI
		if v < best.Value || (v == best.Value && r < best.Rank) {
			best = MinLoc{Value: v, Rank: r}
		}
	}
	return best
}

// Alltoallv sends bufs[dst] from this rank to each rank dst and returns
// recv where recv[src] is the buffer this rank received from src.
// bufs must have length Size(); nil entries mean "send nothing". The
// result aliases a pooled slab: it is valid only until the next
// collective on this Comm.
func (c *Comm) Alltoallv(bufs [][]byte) [][]byte {
	if len(bufs) != c.size {
		panic(fmt.Sprintf("mpi: Alltoallv with %d buffers for %d ranks", len(bufs), c.size))
	}
	sent, sentMsgs := 0, int64(0)
	for dst, b := range bufs {
		if dst != c.rank {
			sent += len(b)
			if len(b) > 0 {
				sentMsgs++
			}
		}
	}
	arrive := c.t.Now()
	in := c.t.ScatterSlots(bufs)
	c.noteSync(arrive)
	c.recordSlotMatches()
	if c.pool.a2aOut == nil {
		c.pool.a2aOut = make([][]byte, c.size)
	}
	out := c.pool.a2aOut
	total := 0
	for src := 0; src < c.size; src++ {
		total += len(in[src])
	}
	c.pool.a2aSlab = grow(c.pool.a2aSlab, total)
	slab := c.pool.a2aSlab
	off := 0
	recvd, recvMsgs := 0, int64(0)
	for src := 0; src < c.size; src++ {
		b := in[src]
		n := copy(slab[off:off+len(b)], b)
		out[src] = slab[off : off+n : off+n]
		off += n
		if src != c.rank {
			recvd += len(b)
			if len(b) > 0 {
				recvMsgs++
			}
		}
	}
	c.countExchange(c.kind, sentMsgs, int64(sent), recvMsgs, int64(recvd))
	arrive = c.t.Now()
	c.t.ReleaseSlots()
	c.noteSync(arrive)
	return out
}

// allgatherSmall is AllgatherBytes without double-charging collective
// cost for the helpers built on top of it. Results live in the Comm's
// pooled allgather slab — valid until the next collective.
func (c *Comm) allgatherSmall(data []byte) [][]byte {
	c.collectiveCost(len(data))
	arrive := c.t.Now()
	in := c.t.GatherSlots(data)
	c.noteSync(arrive)
	c.recordSlotMatches()
	if c.pool.agOut == nil {
		c.pool.agOut = make([][]byte, c.size)
	}
	out := c.pool.agOut
	total := 0
	for _, s := range in {
		total += len(s)
	}
	c.pool.agSlab = grow(c.pool.agSlab, total)
	slab := c.pool.agSlab
	off := 0
	for i, s := range in {
		n := copy(slab[off:off+len(s)], s)
		out[i] = slab[off : off+n : off+n]
		off += n
	}
	arrive = c.t.Now()
	c.t.ReleaseSlots()
	c.noteSync(arrive)
	return out
}

func reduceF64(a, b float64, op ReduceOp) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	default:
		panic(fmt.Sprintf("mpi: unknown reduce op %d", op))
	}
}

func reduceI64(a, b int64, op ReduceOp) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	default:
		panic(fmt.Sprintf("mpi: unknown reduce op %d", op))
	}
}
