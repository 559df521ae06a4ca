// Testdata for the bufalias analyzer. Comm and SendBuffers stub the
// internal/mpi surface by name (the testdata loader is stdlib-only):
// the analyzer matches producer/invalidator methods by receiver type
// name, exactly as it does against the real package.
package pooluse

type Comm struct{}

func (*Comm) AllgatherBytes(data []byte) [][]byte { return nil }
func (*Comm) Alltoallv(bufs [][]byte) [][]byte    { return nil }
func (*Comm) AllreduceI64(x int64, op int) int64  { return x }

type SendBuffers struct{}

func (*SendBuffers) Reset()               {}
func (*SendBuffers) Bufs() [][]byte       { return nil }
func (*SendBuffers) For(dst int) *Encoder { return &Encoder{} }

type Encoder struct{}

func (*Encoder) PutInt(v int) {}

type holder struct{ buf [][]byte }

func consume(b []byte) int { return len(b) }

// retained is the seeded violation from the pool contract's doc: an
// Allgather result held across the next collective reads recycled
// memory.
func retained(c *Comm, payload []byte) int {
	parts := c.AllgatherBytes(payload)
	c.AllreduceI64(0, 0)
	return consume(parts[0]) // want `use of pooled AllgatherBytes result after AllreduceI64 recycled the buffer`
}

// decodeFirst is the sanctioned idiom: consume the result before the
// next collective, then let the reassignment take the fresh one.
func decodeFirst(c *Comm, payload []byte) int {
	parts := c.AllgatherBytes(payload)
	n := consume(parts[0])
	parts = c.AllgatherBytes(payload)
	return n + consume(parts[0])
}

// aliased tracks staleness through element and slice aliases.
func aliased(c *Comm, payload []byte) int {
	parts := c.AllgatherBytes(payload)
	first := parts[0]
	c.Alltoallv([][]byte{payload})
	return consume(first) // want `use of pooled AllgatherBytes result after Alltoallv recycled the buffer`
}

// ranged: the per-iteration binding aliases the pooled result, but the
// loop body consumes it before any further collective — allowed.
func ranged(c *Comm, bufs [][]byte) int {
	n := 0
	for _, b := range c.Alltoallv(bufs) {
		n += consume(b)
	}
	return n
}

// rangedStale: a collective inside the loop body invalidates the
// binding of the next iteration's read.
func rangedStale(c *Comm, bufs [][]byte, payload []byte) int {
	n := 0
	for _, b := range c.Alltoallv(bufs) {
		c.AllgatherBytes(payload)
		n += consume(b) // want `use of pooled Alltoallv result after AllgatherBytes recycled the buffer`
	}
	return n
}

// sendSlab: encoder slabs die on Reset, not on collectives.
func sendSlab(sb *SendBuffers, c *Comm, bufs [][]byte) {
	e := sb.For(0)
	c.AllreduceI64(0, 0) // collectives do not recycle send buffers
	e.PutInt(1)
	sb.Reset()
	e.PutInt(2) // want `use of pooled For result after Reset recycled the buffer`
}

// escapes: pooled values stored past the call's extent are flagged even
// without a later collective in this function.
func escapes(c *Comm, payload []byte, h *holder) [][]byte {
	h.buf = c.AllgatherBytes(payload) // want `pooled AllgatherBytes result stored to h, which outlives this call`
	parts := c.AllgatherBytes(payload)
	return parts // want `pooled AllgatherBytes result escapes via return`
}

// captured: a closure over a pooled value may run after any number of
// collectives.
func captured(c *Comm, payload []byte) func() int {
	parts := c.AllgatherBytes(payload)
	return func() int { return consume(parts[0]) } // want `pooled AllgatherBytes result captured by function literal`
}

// copied: copying the bytes out severs the alias — no finding.
func copied(c *Comm, payload []byte) []byte {
	parts := c.AllgatherBytes(payload)
	own := make([]byte, len(parts[0]))
	copy(own, parts[0])
	c.AllreduceI64(0, 0)
	return own
}

// justified carries the suppression comment: no diagnostic.
func justified(c *Comm, payload []byte) int {
	parts := c.AllgatherBytes(payload)
	c.AllreduceI64(0, 0)
	//dinfomap:bufalias-ok single-rank world: the allreduce is a no-op and nothing recycles the pool
	return consume(parts[0])
}
