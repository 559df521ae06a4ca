package mpi

import (
	"encoding/binary"
	"fmt"
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
//	ScatterSlots send list         (blocks until every peer's payload is in)
//	read the returned views, copy into pooled storage
//	ReleaseSlots                   (views dead; transport storage reusable)
//
// On the goroutine backend both phases are barriers over shared slots,
// mirroring MPI's blocking collectives; the proc backend sends each peer
// one frame per collective instead, in the same order on every rank, and
// its release only recycles the received frames without synchronizing.
// Either way each collective is billed as exactly two synchronization
// points, so BarrierSyncs counts match bit-for-bit across backends.
//
// Receive-side storage is pooled per Comm: the slices returned by
// AllgatherBytes and Alltoallv are valid only until the next collective
// on the same Comm. Callers must decode (or copy) before communicating
// again — every caller in this repository decodes immediately, which is
// what lets steady-state exchange rounds run at zero allocations on
// both backends.

// AllreduceI64 reduces one int64 across all ranks with op.
func (c *Comm) AllreduceI64(x int64, op ReduceOp) int64 {
	buf := c.pubBuf(8)
	binary.LittleEndian.PutUint64(buf, uint64(x))
	parts := c.AllgatherBytes(buf)
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
	out := c.window(bufs, &c.pool.a2a)
	recvd, recvMsgs := 0, int64(0)
	for src, b := range out {
		if src != c.rank {
			recvd += len(b)
			if len(b) > 0 {
				recvMsgs++
			}
		}
	}
	// Real message counters on both sides, no modeled collective term.
	c.count(KindStats{
		MsgsSent: sentMsgs, BytesSent: int64(sent),
		MsgsRecv: recvMsgs, BytesRecv: int64(recvd),
	})
	return out
}

// AllgatherBytes gathers one byte slice from every rank; result[i] is
// rank i's contribution. All ranks receive identical results. The
// result aliases pooled storage: it is valid only until the next
// collective on this Comm.
func (c *Comm) AllgatherBytes(data []byte) [][]byte {
	c.collectiveCost(len(data))
	if c.pool.agSend == nil {
		c.pool.agSend = make([][]byte, c.size)
	}
	send := c.pool.agSend
	for dst := range send {
		send[dst] = data
	}
	out := c.window(send, &c.pool.ag)
	// Cleared only now: until ReleaseSlots a slower goroutine rank may
	// still be reading its view out of the send list.
	clear(send)
	return out
}

// window runs one collective's two-phase window over the send list
// bufs, copying what this rank receives into s.
func (c *Comm) window(bufs [][]byte, s *recvSlab) [][]byte {
	arrive := c.t.Now()
	in := c.t.ScatterSlots(bufs)
	c.noteSync(arrive)
	c.recordSlotMatches()
	out := s.fill(in)
	arrive = c.t.Now()
	c.t.ReleaseSlots()
	c.noteSync(arrive)
	return out
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
