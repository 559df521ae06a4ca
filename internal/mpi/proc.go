// The multi-process transport: each rank is an OS process, peers are
// connected in a full mesh over TCP or unix sockets, and every payload
// crosses as a length-prefixed frame in the same fixed-width
// little-endian format as the codec (codec.go) that produces the
// payloads themselves.
//
// Mesh establishment is deterministic: every rank listens on its own
// address and dials every lower-numbered rank, retrying with backoff
// until the connect budget (WithConnectTimeout) runs out; each
// connection is verified by a handshake carrying the world size, both
// rank ids, and the build version, so a mis-wired or mis-built mesh
// fails the launch instead of corrupting a run.
//
// Every collective sends each peer exactly one frame, and every rank
// runs the same collectives in the same order, so each peer's stream
// arrives in the order the rank consumes it: nothing is matched. A
// frame's tag is its collective's sequence number (0, 1, ...), and the
// receive side only checks that the head of the peer's queue carries
// the number it expects. A collective completes only once every peer's
// frame for it has arrived, so a peer runs at most one collective
// ahead.
//
// Failure semantics mirror the goroutine backend's poison protocol
// across process boundaries: an aborting rank broadcasts a poison frame
// carrying the originating cause before closing its sockets, and a
// peer that dies without one (kill -9, crash) is detected as a
// connection loss by its neighbors' readers — either way every healthy
// rank unwinds with a cause instead of hanging until the watchdog.
package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Frame layout: a fixed 24-byte header — payload length (u64), tag
// (i64: the collective's sequence number, or a negative control tag),
// sender's epoch-relative send stamp in nanoseconds (i64) —
// followed by the payload bytes. Little-endian fixed-width, like every
// codec-encoded payload it carries.
const frameHeader = 24

// maxFrame bounds a single payload; a length beyond it means a corrupt
// or hostile stream and poisons the world instead of allocating.
const maxFrame = 1 << 31

// frameChunk is how far a payload buffer may grow ahead of the bytes
// that have arrived: a payload larger than the buffer at hand is read
// in pieces of at most this size, so a forged length followed by EOF
// costs one chunk, not the length it claims.
const frameChunk = 1 << 20

// queueDepth is the capacity of each peer's frame queue and of its
// list of recycled receive buffers (see ProcTransport.ReleaseSlots):
// the frame of the collective this rank is in, plus the next one from a
// peer that ran ahead. A peer cannot run further ahead — finishing the
// next collective needs this rank's frame for it — so a reader never
// waits for the rank, and more recycled buffers would only hold memory.
const queueDepth = 2

// Control-frame tags. A collective frame's tag is its sequence number,
// counted from 0 on every rank, so it is never negative.
const (
	tagPoison = -1 // payload: the originating error text
	tagHello  = -2 // handshake frame (never queued)
)

// anyPeer is the handshake's wantPeer on the accept side: the hello
// itself says which rank dialed.
const anyPeer = -1

// handshakeMagic identifies a dinfomap mesh peer; the low bytes spell
// "dnfomesh".
const handshakeMagic = 0x64_6e_66_6f_6d_65_73_68

// ProcConfig wires one rank of a multi-process world.
type ProcConfig struct {
	Rank int // this rank's id
	Size int // world size

	// Listener is this rank's accept endpoint, already bound (the
	// launcher binds all addresses before spawning so children never
	// race on bind). The transport owns it and closes it once the mesh
	// is complete.
	Listener net.Listener
	// Addrs[r] is rank r's listen address; len(Addrs) must equal Size.
	Addrs []string
	// Network is the dial network: "tcp" or "unix".
	Network string
	// Epoch is the shared zero point of all message stamps, chosen by
	// the launcher and passed to every rank (as a wall-clock instant,
	// so cross-process stamps are comparable). Zero means "now".
	Epoch time.Time
	// Version is this build's identity, exchanged and verified during
	// the handshake so a mesh of mismatched binaries fails the launch.
	// Empty disables the check.
	Version string
}

// peerConn is one established connection to a peer rank. The write
// side hands header and payload to the socket as one vectored write,
// without copying the payload; wmu serializes the rank goroutine with
// the abort path's poison broadcast, so frames never interleave. free
// holds the receive buffers the rank has handed back for this peer's
// reader to fill again.
type peerConn struct {
	c    net.Conn
	wmu  sync.Mutex
	whdr [frameHeader]byte
	wvec [2][]byte
	wout net.Buffers
	free chan []byte
}

func newPeerConn(c net.Conn) *peerConn {
	return &peerConn{c: c, free: make(chan []byte, queueDepth)}
}

func (pc *peerConn) writeFrame(tag int, sentAt time.Duration, payload []byte) error {
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	binary.LittleEndian.PutUint64(pc.whdr[0:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(pc.whdr[8:], uint64(int64(tag)))
	binary.LittleEndian.PutUint64(pc.whdr[16:], uint64(int64(sentAt)))
	pc.wvec = [2][]byte{pc.whdr[:], payload}
	pc.wout = pc.wvec[:]
	_, err := pc.wout.WriteTo(pc.c)
	pc.wvec[1] = nil // hold no reference to the caller's payload
	return err
}

// recycle hands a received payload back to the reader's free list, or
// drops it when the list is full.
func (pc *peerConn) recycle(b []byte) {
	select {
	case pc.free <- b:
	default:
	}
}

// frame is one decoded wire frame.
type frame struct {
	tag    int
	sentAt time.Duration
	data   []byte
}

// frameSizeError reports a frame whose header claims a payload beyond
// the reader's limit.
type frameSizeError struct {
	tag int
	n   uint64
}

func (e *frameSizeError) Error() string {
	return fmt.Sprintf("frame of %d bytes exceeds limit", e.n)
}

// readFrame reads one frame from r, using hdr (frameHeader bytes) as
// header scratch. The payload lands in buf when its capacity suffices;
// a larger one is read in frameChunk pieces into a buffer grown only as
// bytes arrive. A header claiming more than limit bytes is a
// *frameSizeError and its payload is not read. A zero-length payload
// comes back nil, leaving buf unused.
func readFrame(r io.Reader, hdr, buf []byte, limit uint64) (frame, error) {
	if _, err := io.ReadFull(r, hdr[:frameHeader]); err != nil {
		return frame{}, err
	}
	n := binary.LittleEndian.Uint64(hdr[0:])
	f := frame{
		tag:    int(int64(binary.LittleEndian.Uint64(hdr[8:]))),
		sentAt: time.Duration(int64(binary.LittleEndian.Uint64(hdr[16:]))),
	}
	if n > limit {
		return f, &frameSizeError{tag: f.tag, n: n}
	}
	if n == 0 {
		return f, nil
	}
	if n <= uint64(cap(buf)) {
		f.data = buf[:n]
		_, err := io.ReadFull(r, f.data)
		return f, err
	}
	data := buf[:0]
	for got := uint64(0); got < n; {
		k := min(n-got, frameChunk)
		if uint64(cap(data))-got < k {
			grown := make([]byte, got, min(n, max(2*uint64(cap(data)), got+k)))
			copy(grown, data)
			data = grown
		}
		m, err := io.ReadFull(r, data[got:got+k])
		got += uint64(m)
		data = data[:got]
		if err != nil {
			return f, err
		}
	}
	f.data = data
	return f, nil
}

// ProcTransport is the multi-process Transport: this process's endpoint
// into a world of one-process-per-rank peers. Create one with DialProc
// and run the rank with RunRank.
type ProcTransport struct {
	rank, size int
	epoch      time.Time
	timeout    time.Duration
	network    string

	fail  failState
	in    []chan frame // in[src]: src's frames in arrival order; nil at self
	conns []*peerConn  // indexed by peer rank; nil at self

	seq   int      // sequence number of the next collective (SPMD-consistent)
	views [][]byte // per-rank views returned by ScatterSlots

	tstats procCounters

	// stamps collects per-source match records of the slot collectives
	// when a recorded run enables it (see StampSlotMatches); only the
	// rank goroutine touches it.
	stamps struct {
		on  bool
		buf []P2PEvent
	}

	done   atomic.Bool // set on clean Finish: subsequent EOFs are benign
	closed sync.Once
}

// procCounters are the transport's wire-level counters. Atomics
// throughout: the rank goroutine counts sends, each per-peer reader
// counts its own receives, and a telemetry snapshot (Telemetry) may be
// taken from yet another goroutine mid-run.
type procCounters struct {
	connectRetries atomic.Int64
	handshakeNs    atomic.Int64
	poisonsSent    atomic.Int64
	poisonsRecv    atomic.Int64
	peers          []peerCounters
}

type peerCounters struct {
	framesSent, bytesSent atomic.Int64
	framesRecv, bytesRecv atomic.Int64
}

// PeerTraffic is one peer's share of a rank's wire traffic: whole
// frames (header included), as put on and taken off the socket. The
// frame counts are deterministic for a given run — every collective,
// and Finish, sends each peer one frame — while byte counts include the
// fixed per-frame header.
type PeerTraffic struct {
	FramesSent int64 `json:"frames_sent"`
	BytesSent  int64 `json:"bytes_sent"`
	FramesRecv int64 `json:"frames_recv"`
	BytesRecv  int64 `json:"bytes_recv"`
}

// TransportStats is a snapshot of one rank's transport-level counters:
// per-peer frame/byte traffic, mesh-establishment cost, and failure
// signals. Measured-time fields carry "wall" in their JSON names so
// report diffing classifies them as nondeterministic. Handshake frames
// themselves are not counted; the counters cover post-handshake
// traffic.
type TransportStats struct {
	Network string `json:"network"`
	// GOMAXPROCS is the rank process's runtime.GOMAXPROCS(0): the cores
	// its Go runtime schedules on.
	GOMAXPROCS int `json:"gomaxprocs"`
	// ConnectRetries counts dial attempts beyond the first across all
	// peers during mesh establishment.
	ConnectRetries int64 `json:"connect_retries"`
	// HandshakeWallNs is the full mesh-establishment time: every peer
	// dialed/accepted and handshake-verified.
	HandshakeWallNs int64 `json:"handshake_wall_ns"`
	PoisonsSent     int64 `json:"poisons_sent"`
	PoisonsRecv     int64 `json:"poisons_recv"`

	FramesSent int64 `json:"frames_sent"`
	BytesSent  int64 `json:"bytes_sent"`
	FramesRecv int64 `json:"frames_recv"`
	BytesRecv  int64 `json:"bytes_recv"`
	// Peers is indexed by peer rank; the self entry stays zero
	// (self-sends never touch a socket).
	Peers []PeerTraffic `json:"peers,omitempty"`
}

// Telemetry snapshots the transport's wire-level counters. Safe to call
// at any time, including mid-run from another goroutine.
func (t *ProcTransport) Telemetry() *TransportStats {
	ts := &TransportStats{
		Network:         t.network,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		ConnectRetries:  t.tstats.connectRetries.Load(),
		HandshakeWallNs: t.tstats.handshakeNs.Load(),
		PoisonsSent:     t.tstats.poisonsSent.Load(),
		PoisonsRecv:     t.tstats.poisonsRecv.Load(),
		Peers:           make([]PeerTraffic, len(t.tstats.peers)),
	}
	for p := range t.tstats.peers {
		pc := &t.tstats.peers[p]
		pt := PeerTraffic{
			FramesSent: pc.framesSent.Load(),
			BytesSent:  pc.bytesSent.Load(),
			FramesRecv: pc.framesRecv.Load(),
			BytesRecv:  pc.bytesRecv.Load(),
		}
		ts.Peers[p] = pt
		ts.FramesSent += pt.FramesSent
		ts.BytesSent += pt.BytesSent
		ts.FramesRecv += pt.FramesRecv
		ts.BytesRecv += pt.BytesRecv
	}
	return ts
}

// DialProc establishes this rank's corner of the full mesh — listening
// for higher-numbered ranks, dialing lower-numbered ones with
// retry/backoff, and handshaking every connection — and returns the
// ready transport. The whole phase shares one budget
// (WithConnectTimeout; DefaultConnectTimeout if unset): a peer that
// never appears fails the launch with an error, it does not consume the
// much longer deadlock window (WithTimeout), which only starts once the
// mesh is up.
func DialProc(cfg ProcConfig, opts ...RunOpt) (*ProcTransport, error) {
	if cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("mpi: DialProc rank %d outside world of %d", cfg.Rank, cfg.Size)
	}
	if len(cfg.Addrs) != cfg.Size {
		return nil, fmt.Errorf("mpi: DialProc with %d addrs for %d ranks", len(cfg.Addrs), cfg.Size)
	}
	// RunOpts are shared with Run; a detached World is their options bag.
	bag := &World{timeout: DeadlockTimeout, connect: DefaultConnectTimeout}
	for _, opt := range opts {
		opt(bag)
	}
	epoch := cfg.Epoch
	if epoch.IsZero() {
		epoch = time.Now()
	}
	t := &ProcTransport{
		rank:    cfg.Rank,
		size:    cfg.Size,
		epoch:   epoch,
		timeout: bag.timeout,
		network: cfg.Network,
		in:      make([]chan frame, cfg.Size),
		conns:   make([]*peerConn, cfg.Size),
		views:   make([][]byte, cfg.Size),
	}
	t.tstats.peers = make([]peerCounters, cfg.Size)
	t.fail.init()
	meshStart := time.Now()
	deadline := meshStart.Add(bag.connect)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(1)
	go func() { // accept ranks above us
		defer wg.Done()
		errs[0] = t.acceptPeers(cfg, deadline)
	}()
	wg.Add(1)
	go func() { // dial ranks below us
		defer wg.Done()
		errs[1] = t.dialPeers(cfg, deadline)
	}()
	wg.Wait()
	if cfg.Listener != nil {
		//dinfomap:close-ok mesh is complete; nothing was ever written through the listener
		cfg.Listener.Close()
	}
	if err := errors.Join(errs[0], errs[1]); err != nil {
		t.closeConns()
		return nil, fmt.Errorf("mpi: rank %d mesh setup: %w", cfg.Rank, err)
	}
	t.tstats.handshakeNs.Store(time.Since(meshStart).Nanoseconds())
	for peer, pc := range t.conns {
		if pc == nil {
			continue
		}
		t.in[peer] = make(chan frame, queueDepth)
		go t.reader(peer, pc)
	}
	return t, nil
}

func (t *ProcTransport) acceptPeers(cfg ProcConfig, deadline time.Time) error {
	want := cfg.Size - 1 - cfg.Rank // every rank above us dials in
	if want == 0 {
		return nil
	}
	l := cfg.Listener
	if l == nil {
		return fmt.Errorf("no listener but %d peers must dial in", want)
	}
	type deadliner interface{ SetDeadline(time.Time) error }
	if d, ok := l.(deadliner); ok {
		if err := d.SetDeadline(deadline); err != nil {
			return fmt.Errorf("listener deadline: %w", err)
		}
	}
	for got := 0; got < want; got++ {
		conn, err := l.Accept()
		if err != nil {
			return fmt.Errorf("accepting peer %d of %d: %w", got+1, want, err)
		}
		peer, err := t.handshake(conn, cfg, anyPeer, deadline)
		if err != nil {
			//dinfomap:close-ok handshake already failed; the close error cannot add anything
			conn.Close()
			return err
		}
		if peer <= cfg.Rank || peer >= cfg.Size || t.conns[peer] != nil {
			//dinfomap:close-ok rejecting a duplicate/out-of-range peer; its close error is irrelevant
			conn.Close()
			return fmt.Errorf("unexpected hello from rank %d", peer)
		}
		t.conns[peer] = newPeerConn(conn)
	}
	return nil
}

func (t *ProcTransport) dialPeers(cfg ProcConfig, deadline time.Time) error {
	for peer := 0; peer < cfg.Rank; peer++ {
		backoff := 10 * time.Millisecond
		for {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				return fmt.Errorf("connect timeout dialing rank %d at %s", peer, cfg.Addrs[peer])
			}
			conn, err := net.DialTimeout(cfg.Network, cfg.Addrs[peer], remaining)
			if err == nil {
				got, herr := t.handshake(conn, cfg, peer, deadline)
				if herr == nil && got == peer {
					t.conns[peer] = newPeerConn(conn)
					break
				}
				//dinfomap:close-ok handshake already failed; the close error cannot add anything
				conn.Close()
				if herr == nil {
					herr = fmt.Errorf("dialed rank %d but peer claims rank %d", peer, got)
				}
				// An I/O error mid-handshake can be the peer still
				// coming up (listener bound, process not accepting
				// yet on some platforms); verification mismatches are
				// configuration bugs and fail immediately.
				var mismatch *handshakeMismatch
				if errors.As(herr, &mismatch) {
					return herr
				}
				err = herr
			}
			// Exponential backoff while the peer process starts up.
			t.tstats.connectRetries.Add(1)
			time.Sleep(backoff)
			if backoff < 500*time.Millisecond {
				backoff *= 2
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("connect timeout dialing rank %d at %s: last error: %v", peer, cfg.Addrs[peer], err)
			}
		}
	}
	return nil
}

// handshakeMismatch is a non-retryable handshake failure: the peer is
// reachable but belongs to a different world, rank, or build.
type handshakeMismatch struct{ msg string }

func (e *handshakeMismatch) Error() string { return e.msg }

// helloFixed is the fixed part of a hello payload: magic, world size,
// rank and version length, eight bytes each. The version bytes follow.
const helloFixed = 32

// encodeHello returns the hello payload of rank in a world of size
// ranks running build version.
func encodeHello(size, rank int, version string) []byte {
	e := NewEncoder(helloFixed + len(version))
	e.PutU64(handshakeMagic)
	e.PutInt(size)
	e.PutInt(rank)
	e.PutInt(len(version))
	e.Append([]byte(version))
	return e.Bytes()
}

// decodeHello parses a peer's hello payload. It arrives before the peer
// is verified, so a payload too short for the fixed part, a wrong magic,
// or a version length other than the bytes that follow is a
// *handshakeMismatch, never a panic.
func decodeHello(b []byte) (size, rank int, version string, err error) {
	d := NewDecoder(b)
	if len(b) < helloFixed || d.U64() != handshakeMagic {
		return 0, 0, "", &handshakeMismatch{fmt.Sprintf("bad hello (%d bytes): not a dinfomap mesh peer?", len(b))}
	}
	size, rank = d.Int(), d.Int()
	if n := d.I64(); n != int64(d.Remaining()) {
		return 0, 0, "", &handshakeMismatch{fmt.Sprintf("hello claims a %d-byte version but carries %d bytes", n, d.Remaining())}
	}
	return size, rank, string(b[helloFixed:]), nil
}

// handshake exchanges and verifies hello frames on a fresh connection.
// wantPeer is the expected remote rank, or anyPeer on the accept side.
// Both sides send first and then read — the frames cross on the wire,
// so there is no lock-step ordering to deadlock on.
func (t *ProcTransport) handshake(conn net.Conn, cfg ProcConfig, wantPeer int, deadline time.Time) (int, error) {
	if err := conn.SetDeadline(deadline); err != nil {
		return 0, fmt.Errorf("handshake deadline: %w", err)
	}
	hello := encodeHello(cfg.Size, cfg.Rank, cfg.Version)
	if err := newPeerConn(conn).writeFrame(tagHello, 0, hello); err != nil {
		return 0, fmt.Errorf("sending hello: %w", err)
	}
	f, err := readFrame(conn, make([]byte, frameHeader), nil, 4096)
	var big *frameSizeError
	if errors.As(err, &big) {
		return 0, &handshakeMismatch{fmt.Sprintf("bad hello frame (tag=%d, len=%d): not a dinfomap mesh peer?", big.tag, big.n)}
	}
	if err != nil {
		return 0, fmt.Errorf("reading hello: %w", err)
	}
	if f.tag != tagHello {
		return 0, &handshakeMismatch{fmt.Sprintf("bad hello frame (tag=%d, len=%d): not a dinfomap mesh peer?", f.tag, len(f.data))}
	}
	size, peer, version, err := decodeHello(f.data)
	if err != nil {
		return 0, err
	}
	if size != cfg.Size {
		return 0, &handshakeMismatch{fmt.Sprintf("rank %d believes world size is %d, we have %d", peer, size, cfg.Size)}
	}
	if wantPeer != anyPeer && peer != wantPeer {
		return 0, &handshakeMismatch{fmt.Sprintf("dialed rank %d but peer claims rank %d", wantPeer, peer)}
	}
	if cfg.Version != "" && version != "" && version != cfg.Version {
		return 0, &handshakeMismatch{fmt.Sprintf("build mismatch: rank %d runs %q, we run %q", peer, version, cfg.Version)}
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return 0, fmt.Errorf("clearing handshake deadline: %w", err)
	}
	return peer, nil
}

// reader drains one peer connection into the peer's frame queue for
// the life of the world. Payloads are read into buffers the rank
// recycled (see ReleaseSlots) when there is one. A poison frame carries
// a failed peer's cause; a bare connection loss (crash, kill) becomes
// one. After a clean Finish both are expected and ignored.
func (t *ProcTransport) reader(peer int, pc *peerConn) {
	hdr := make([]byte, frameHeader)
	var spare []byte
	for {
		if spare == nil {
			select {
			case spare = <-pc.free:
			default:
			}
		}
		f, err := readFrame(pc.c, hdr, spare, maxFrame)
		if err != nil {
			t.readFailed(peer, err)
			return
		}
		if f.data != nil {
			spare = nil // the frame owns it (or outgrew it) now
		}
		pcnt := &t.tstats.peers[peer]
		pcnt.framesRecv.Add(1)
		pcnt.bytesRecv.Add(int64(frameHeader) + int64(len(f.data)))
		if f.tag == tagPoison {
			t.tstats.poisonsRecv.Add(1)
			t.fail.poisonWith(fmt.Errorf("poisoned by rank %d: %s", peer, f.data))
			return
		}
		select {
		case t.in[peer] <- f:
		case <-t.fail.poison:
			return // the rank unwinds and will not take it
		}
	}
}

func (t *ProcTransport) readFailed(peer int, err error) {
	if t.done.Load() {
		return // clean teardown: peers hanging up is the expected end
	}
	t.fail.poisonWith(fmt.Errorf("rank %d: connection to rank %d lost: %v", t.rank, peer, err))
}

func (t *ProcTransport) Rank() int          { return t.rank }
func (t *ProcTransport) Size() int          { return t.size }
func (t *ProcTransport) Now() time.Duration { return time.Since(t.epoch) }

// send writes one frame to peer dst (never this rank), poisoning the
// world (and unwinding this rank) if the write fails. It does not wait
// for the peer's rank code: the kernel socket buffer and the peer's
// reader goroutine absorb the payload.
func (t *ProcTransport) send(dst, seq int, data []byte) {
	if err := t.conns[dst].writeFrame(seq, t.Now(), data); err != nil {
		// A failed write is usually the symptom of a peer's abort —
		// its sockets close a moment before its poison frame is
		// processed on our side. Give the real cause a moment to
		// arrive so the unwind names the disease, not the broken pipe.
		cause := t.awaitCause(fmt.Errorf("rank %d: send to rank %d failed: %v", t.rank, dst, err))
		panic(fmt.Sprintf("mpi: rank %d: world poisoned sending to rank %d (seq=%d): cause: %v", t.rank, dst, seq, cause))
	}
	pcnt := &t.tstats.peers[dst]
	pcnt.framesSent.Add(1)
	pcnt.bytesSent.Add(int64(frameHeader + len(data)))
}

// awaitCause resolves the failure to blame for a secondary symptom
// (like a failed write): wait briefly for the world's first recorded
// failure — a poison frame or connection-loss report in flight on
// another connection — and fall back to the symptom itself if nothing
// arrives.
func (t *ProcTransport) awaitCause(fallback error) error {
	grace := time.NewTimer(200 * time.Millisecond)
	defer stopTimer(grace)
	select {
	case <-t.fail.poison:
	case <-grace.C:
	}
	t.fail.poisonWith(fallback)
	return t.fail.failure()
}

// StampSlotMatches turns per-source match stamping on or off for
// ScatterSlots (the slotStamper capability; see Comm). Called once
// before the rank program starts.
func (t *ProcTransport) StampSlotMatches(on bool) { t.stamps.on = on }

// TakeSlotMatches returns the matches stamped since the last call and
// reclaims the backing storage for the next collective.
func (t *ProcTransport) TakeSlotMatches() []P2PEvent {
	s := t.stamps.buf
	t.stamps.buf = t.stamps.buf[:0]
	return s
}

// recv takes the next frame from src's queue, which must be the frame
// of collective seq; anything else means the ranks' collective
// sequences diverged, and the rank unwinds naming both numbers. The
// deadlock timer is created lazily so the already-arrived fast path
// stays allocation-free, and the blocked-since stamp is taken at the
// same moment so diagnostics report the time actually spent blocked. A
// rank woken by poison or the watchdog unwinds with op (the blocking
// operation), the cause, and what was queued — without these a
// cross-rank failure is undebuggable. With stamping on, the frame's
// wire-carried send stamp and this rank's receive window are recorded:
// the raw material of cross-process flow arrows.
func (t *ProcTransport) recv(src, seq int, op string) []byte {
	var start time.Duration
	if t.stamps.on {
		start = t.Now()
	}
	var f frame
	select {
	case f = <-t.in[src]:
	default:
		began := t.Now()
		deadline := time.NewTimer(t.timeout)
		select {
		case f = <-t.in[src]:
			stopTimer(deadline)
		case <-t.fail.poison:
			panic(fmt.Sprintf("mpi: rank %d: world poisoned while waiting in %s(src=%d, seq=%d) after %v: cause: %v; %s",
				t.rank, op, src, seq, (t.Now() - began).Round(time.Microsecond), t.fail.failure(), t.queued()))
		case <-deadline.C:
			panic(fmt.Sprintf("mpi: rank %d deadlocked in %s(src=%d, seq=%d) after %v; %s",
				t.rank, op, src, seq, (t.Now() - began).Round(time.Millisecond), t.queued()))
		}
	}
	if f.tag != seq {
		panic(fmt.Sprintf("mpi: rank %d: %s(src=%d, seq=%d) received the frame of collective %d",
			t.rank, op, src, seq, f.tag))
	}
	if t.stamps.on {
		t.stamps.buf = append(t.stamps.buf, P2PEvent{
			Src: src, Tag: seq,
			Bytes:  int64(len(f.data)),
			SentAt: f.sentAt, RecvStart: start, RecvEnd: t.Now(),
		})
	}
	return f.data
}

// queued takes every frame still queued and lists their (src, seq,
// size), at most queueDepth per peer, for failure diagnostics. It is
// only called on panic paths: the rank is unwinding and would never take
// them.
func (t *ProcTransport) queued() string {
	var b strings.Builder
	n := 0
	for src, q := range t.in {
		for k := len(q); k > 0; k-- {
			f := <-q // only this goroutine takes, so len(q) frames are there
			n++
			fmt.Fprintf(&b, " (src=%d seq=%d %dB)", src, f.tag, len(f.data))
		}
	}
	return fmt.Sprintf("%d queued:%s", n, b.String())
}

// ScatterSlots sends bufs[dst] to every peer as its frame of the next
// collective, then takes every peer's frame of that collective in rank
// order. Taking them all is itself the synchronization — a rank cannot
// pass until every peer has sent.
func (t *ProcTransport) ScatterSlots(bufs [][]byte) [][]byte {
	return t.exchange(bufs, "ScatterSlots")
}

func (t *ProcTransport) exchange(bufs [][]byte, op string) [][]byte {
	seq := t.seq
	t.seq++
	for dst, b := range bufs {
		if dst != t.rank {
			t.send(dst, seq, b)
		}
	}
	for src := range t.views {
		if src == t.rank {
			t.views[src] = bufs[src]
		} else {
			t.views[src] = t.recv(src, seq, op)
		}
	}
	return t.views
}

// ReleaseSlots synchronizes nothing on this backend: a rank that runs
// ahead and sends its next frames cannot overwrite anything — they
// queue behind the current ones in each peer's stream. It hands the
// received frames that ScatterSlots lent out back to their peers'
// readers, whose next payloads fill them again (Comm has copied them
// into its slab by now).
func (t *ProcTransport) ReleaseSlots() {
	for src, b := range t.views {
		if src != t.rank && b != nil {
			t.conns[src].recycle(b)
		}
		t.views[src] = nil
	}
}

// Abort poisons the world with err and broadcasts it to every peer as a
// poison frame, so remote ranks unwind with the originating cause
// instead of a bare connection loss. Writes are best-effort under a
// short deadline — a peer that is already gone cannot be allowed to
// block the unwind.
func (t *ProcTransport) Abort(err error) {
	t.fail.poisonWith(err)
	t.done.Store(true) // our own readers' EOFs are expected from here on
	msg := []byte(err.Error())
	for peer, pc := range t.conns {
		if pc == nil {
			continue
		}
		_ = pc.c.SetWriteDeadline(time.Now().Add(2 * time.Second))
		if werr := pc.writeFrame(tagPoison, 0, msg); werr == nil {
			t.tstats.poisonsSent.Add(1)
			pcnt := &t.tstats.peers[peer]
			pcnt.framesSent.Add(1)
			pcnt.bytesSent.Add(int64(frameHeader + len(msg)))
		}
	}
	t.closeConns()
}

func (t *ProcTransport) Err() error { return t.fail.failure() }

// Finish completes this rank cleanly: a final exchange of empty frames
// proves every peer has also finished the algorithm (so closing our
// sockets cannot poison a rank still mid-sweep), then the mesh is torn
// down. It panics — like any blocked operation — if the world was
// poisoned instead.
//
// done is set before the exchange, not after: once fn has returned, the
// only frames this rank still needs are the final exchange's (and any
// poison), and TCP ordering delivers a peer's frame before its close —
// so a hangup observed from here on is a peer that finished and left,
// not a failure. The narrow cost: a peer that crashes after its
// algorithm but before its final exchange leaves us to the deadlock
// watchdog (or to a poison frame from a third rank that saw the crash
// while still working) rather than an instant connection-loss poison.
func (t *ProcTransport) Finish() {
	t.done.Store(true)
	t.exchange(make([][]byte, t.size), "Finish")
	t.closeConns()
}

func (t *ProcTransport) closeConns() {
	t.closed.Do(func() {
		for _, pc := range t.conns {
			if pc != nil {
				//dinfomap:close-ok mesh teardown; the sockets carried their last frame already
				pc.c.Close()
			}
		}
	})
}

// ListenRanks binds one listener per rank before any rank process
// starts, so children never race on bind and every address is known up
// front. network is "tcp" (loopback, kernel-assigned ports) or "unix"
// (sockets named rank<i>.sock under dir — keep dir short, unix socket
// paths are limited to ~100 bytes). The caller owns the listeners: the
// launcher passes each to its rank's process and closes its own copies.
func ListenRanks(network string, size int, dir string) ([]net.Listener, []string, error) {
	listeners := make([]net.Listener, 0, size)
	addrs := make([]string, 0, size)
	closeAll := func() {
		for _, l := range listeners {
			//dinfomap:close-ok unwinding a failed setup; the bind error is already being returned
			l.Close()
		}
	}
	for r := 0; r < size; r++ {
		var addr string
		switch network {
		case "tcp":
			addr = "127.0.0.1:0"
		case "unix":
			addr = fmt.Sprintf("%s/rank%d.sock", dir, r)
		default:
			closeAll()
			return nil, nil, fmt.Errorf("mpi: ListenRanks: unsupported network %q", network)
		}
		l, err := net.Listen(network, addr)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("mpi: ListenRanks: rank %d: %w", r, err)
		}
		listeners = append(listeners, l)
		addrs = append(addrs, l.Addr().String())
	}
	return listeners, addrs, nil
}
