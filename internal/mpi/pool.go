package mpi

// SendBuffers is a reusable set of per-destination encoders for
// alltoallv-style exchanges. The old idiom allocated a fresh
// []*Encoder (plus one Encoder per active destination) for every
// exchange round; a SendBuffers is created once per communicator or
// level and reused, so steady-state rounds allocate nothing:
//
//	sb.Reset()
//	sb.For(dst).PutInt(v)   // lazily marks dst active this round
//	recv := c.Alltoallv(sb.Bufs())
//
// Like the Comm it feeds, a SendBuffers may only be used by its rank's
// goroutine.
type SendBuffers struct {
	encs []*Encoder
	used []bool
	bufs [][]byte
	// stale marks the buffers as invalidated by a world failure: an
	// abort can land mid-round, leaving encoders half-written, so For
	// and Bufs refuse to serve until a Reset starts a fresh round.
	stale bool
}

// NewSendBuffers returns a SendBuffers for a p-rank world. It is not
// registered with any Comm, so a world failure does not invalidate it;
// prefer Comm.NewSendBuffers, which does.
func NewSendBuffers(p int) *SendBuffers {
	return &SendBuffers{
		encs: make([]*Encoder, p),
		used: make([]bool, p),
		bufs: make([][]byte, p),
	}
}

// NewSendBuffers returns a SendBuffers sized for this communicator's
// world and registers it with the Comm: if the world is poisoned, the
// abort path invalidates it (see scrubOnFailure) so a recovering caller
// cannot exchange the half-written payloads of the aborted round.
func (c *Comm) NewSendBuffers() *SendBuffers {
	sb := NewSendBuffers(c.size)
	if c.sendBufs == nil {
		// Sized for one SendBuffers per merge level; a run deep enough
		// to spill just regrows.
		c.sendBufs = make([]*SendBuffers, 0, 8)
	}
	c.sendBufs = append(c.sendBufs, sb)
	return sb
}

// Reset starts a new exchange round: every destination becomes
// inactive and its encoder is reset on first For. Reset also clears the
// stale mark set by a world failure — a fresh round starts from fresh
// payloads, so the invalidated contents can never be exchanged.
func (s *SendBuffers) Reset() {
	s.stale = false
	for i := range s.used {
		s.used[i] = false
	}
}

// For returns the encoder accumulating this round's payload for dst,
// creating (first ever use) or resetting (first use this round) it as
// needed.
func (s *SendBuffers) For(dst int) *Encoder {
	if s.stale {
		panic("mpi: SendBuffers used after its world failed; Reset starts a fresh round")
	}
	e := s.encs[dst]
	if e == nil {
		e = NewEncoder(256)
		s.encs[dst] = e
	}
	if !s.used[dst] {
		s.used[dst] = true
		e.Reset()
	}
	return e
}

// Bufs returns the per-destination payloads of the current round,
// shaped for Comm.Alltoallv: nil for destinations without one. The
// returned slice and its payloads alias the pool and stay valid until
// the next Reset.
func (s *SendBuffers) Bufs() [][]byte {
	if s.stale {
		panic("mpi: SendBuffers used after its world failed; Reset starts a fresh round")
	}
	for i, e := range s.encs {
		if s.used[i] {
			s.bufs[i] = e.Bytes()
		} else {
			s.bufs[i] = nil
		}
	}
	return s.bufs
}

// commPool holds a Comm's reusable receive-side storage. Collectives
// copy incoming payloads into slabs here instead of fresh allocations,
// which is why their results are only valid until the next collective
// on the same Comm. Only the rank goroutine touches the pool (same
// contract as the communication methods), so no locking is needed.
//
// Error path: when the world is poisoned, the collective that was in
// flight never completed, so the slabs may be half-written — a mix of
// this round's and the previous round's bytes. The abort path
// (scrubOnFailure) therefore zeroes the slabs and drops the result
// headers before the rank unwinds: a caller that recovers above the
// runtime and still holds an aliased result sees zeros, never a
// torn payload. The bufalias analyzer enforces the happy-path lifetime
// (results die at the next collective); the scrub closes the same
// contract over the failure path, where "the next collective" never
// comes.
type commPool struct {
	pub     []byte   // outgoing publish buffer (AllreduceI64)
	a2aOut  [][]byte // Alltoallv result headers
	a2aSlab []byte   // Alltoallv payload slab backing a2aOut
	agOut   [][]byte // allgather result headers
	agSlab  []byte   // allgather payload slab backing agOut
}

// pubBuf returns the pooled n-byte publish buffer, growing it if
// needed. The previous contents are not preserved.
func (c *Comm) pubBuf(n int) []byte {
	if cap(c.pool.pub) < n {
		c.pool.pub = make([]byte, n)
	}
	return c.pool.pub[:n]
}

// grow returns b resized to length n, reusing its capacity when
// possible. The previous contents are not preserved.
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// scrub invalidates the pool after a world failure: slabs are zeroed
// over their full capacity and result headers dropped, so any collective
// result still aliased by a recovering caller reads as zeros instead of
// a half-written exchange. Capacity is kept — a retry on a fresh world
// reuses the storage.
func (p *commPool) scrub() {
	clearBytes(p.pub[:cap(p.pub)])
	clearBytes(p.a2aSlab[:cap(p.a2aSlab)])
	clearBytes(p.agSlab[:cap(p.agSlab)])
	for i := range p.a2aOut {
		p.a2aOut[i] = nil
	}
	for i := range p.agOut {
		p.agOut[i] = nil
	}
}

func clearBytes(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// scrubOnFailure is the pooled-storage half of the abort path: it runs
// while the rank unwinds from a poison/deadlock panic, after which the
// Comm must not be used for communication again. Registered SendBuffers
// are marked stale (their round was cut mid-write) and the receive-side
// pool is zeroed.
func (c *Comm) scrubOnFailure() {
	c.pool.scrub()
	for _, sb := range c.sendBufs {
		sb.stale = true
	}
}
