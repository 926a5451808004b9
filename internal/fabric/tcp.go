package fabric

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"trackfm/internal/mem/bufpool"
	"trackfm/internal/remote"
	"trackfm/internal/sim"
)

// Wire protocol. There is one format and no negotiation: every peer must be
// built from the same commit, and a peer speaking anything else is refused.
//
// Every connection opens with a hello request, a bare 13-byte frame
//
//	opHello(1) helloMagic(8, big-endian) protoVersion(4, big-endian)
//
// which the server answers with
//
//	ackHello(1) protoVersion(1) flags(1) generation(8, big-endian)
//
// generation is the server's restart generation — a value that durably
// increases every time the node restarts (0 means "not advertised") — and
// bit 0 of flags (helloGenDurable) is set when the node recovered its store
// from local durable state, clear when it came up empty or holds state in
// memory only. A client that sees a replica's generation change across a
// reconnect knows the node restarted, and the durability bit tells it
// whether the node kept its keyspace (rejoin needs only the writes missed
// during downtime) or lost it (full resync). A connection whose first frame
// is not a hello carrying the magic and protoVersion is counted in
// ServerStats.BadFrames and closed without an answer.
//
// Every later request carries a 21-byte header
//
//	op(1) key(8, big-endian) length(4, big-endian) deadlineNs(8, big-endian)
//
// where deadlineNs is the operation's remaining budget in nanoseconds (0 =
// no deadline). opPush is followed by payload(length) crc(4); opFetch
// carries the requested size in length and opDelete ignores it. Every
// payload on the wire, in either direction, carries a CRC32-C trailer
// (4 bytes, big-endian) computed over the payload. A fetch is answered
//
//	flag(1) payload(length) crc(4)
//
// with flag flagAbsent (zero payload) or flagFound, or by one byte and
// nothing else: ackErr (the request was rejected), ackCorrupt (the stored
// blob failed its integrity checks), or ackOverloaded (see below). opPush
// and opDelete are answered with a single ack byte: ackOK, ackErr for a
// rejected request, ackCorrupt for a push whose CRC trailer did not
// survive the wire, or ackOverloaded.
//
// The deadline lets the server shed requests it cannot finish in time: a
// server with admission control enabled may answer any request after the
// hello with ackOverloaded (no payload follows, the stream stays in sync),
// which clients treat as backpressure — retried after backoff, never
// charged to the retry budget, never counted against circuit breakers.
const (
	opFetch  = byte(1)
	opPush   = byte(2)
	opDelete = byte(3)
	// opHello opens every connection; it is valid only as the first frame.
	opHello = byte(4)

	flagAbsent = byte(0)
	flagFound  = byte(1)

	ackOK    = byte(0xA5)
	ackHello = byte(0x5A)
	// ackErr doubles as the fetch error flag: any rejected request is
	// answered with this byte so the client gets a definite error frame
	// instead of a silently dropped connection.
	ackErr = byte(0xEE)
	// ackCorrupt / flagCorrupt is the integrity error frame: the stored
	// blob failed its checksum or was shorter than the requested read
	// (fetch), or a pushed payload's CRC trailer did not verify (push).
	ackCorrupt = byte(0xC7)
	// ackOverloaded doubles as the fetch flag and the push/delete ack for
	// a request shed by server-side admission control before service. No
	// payload follows.
	ackOverloaded = byte(0xB7)

	// protoVersion is the one protocol version, carried by the hello in
	// both directions so a peer from another commit is refused up front.
	protoVersion = 4

	// helloGenDurable is the hello-response flags bit advertising that the
	// node's store survives restarts (WAL + snapshots).
	helloGenDurable = byte(1)

	// helloMagic guards the handshake opcode: "TFMFABR2" as a big-endian
	// integer in the key field.
	helloMagic = uint64(0x54464D4641425232)
)

// crcLen is the width of the CRC32-C payload trailer.
const crcLen = 4

// payloadCRC is the trailer checksum over a payload frame. It deliberately
// shares remote.Checksum (CRC32-C), so a blob has one checksum identity
// from the client's buffer, across the wire, to the store and back.
func payloadCRC(p []byte) uint32 { return remote.Checksum(p) }

// maxPayload bounds a single transfer; far-memory objects and pages are at
// most a few KiB, so 16 MiB is generous while still rejecting corrupt
// length fields before allocation.
const maxPayload = 16 << 20

// ErrPayloadTooLarge is returned when a request advertises a payload above
// the protocol limit.
var ErrPayloadTooLarge = errors.New("fabric: payload exceeds protocol limit")

// ServerStats counts server-side protocol events; all fields are atomic.
type ServerStats struct {
	conns       atomic.Uint64 // connections accepted
	frames      atomic.Uint64 // well-formed request frames served
	badFrames   atomic.Uint64 // unknown opcodes / missing or wrong hello (connection dropped)
	oversize    atomic.Uint64 // requests rejected with an error frame
	hellos      atomic.Uint64 // connections that completed the hello
	sizeErrs    atomic.Uint64 // fetches of a truncated blob answered with an integrity error frame
	corrupt     atomic.Uint64 // fetches of a checksum-failing blob answered with an integrity error frame
	wireRejects atomic.Uint64 // pushes whose CRC trailer failed verification (not stored)
	sheds       atomic.Uint64 // requests rejected by admission control with an overload frame
	storeFails  atomic.Uint64 // writes the backing store refused (e.g. WAL append failure): answered with an error frame, never acked
}

// StoreFails reports writes the backing store refused — a durable store
// whose WAL append failed, for example. Each was answered with an error
// frame instead of an ack, so the client never counts it as stored.
func (s *ServerStats) StoreFails() uint64 { return s.storeFails.Load() }

// Conns reports connections accepted over the server's lifetime.
func (s *ServerStats) Conns() uint64 { return s.conns.Load() }

// Frames reports well-formed request frames served.
func (s *ServerStats) Frames() uint64 { return s.frames.Load() }

// BadFrames reports frames with unknown opcodes and connections whose first
// frame was not a valid hello.
func (s *ServerStats) BadFrames() uint64 { return s.badFrames.Load() }

// OversizeRejects reports requests rejected for advertising a payload
// above the protocol limit.
func (s *ServerStats) OversizeRejects() uint64 { return s.oversize.Load() }

// Hellos reports connections that completed the hello (right magic, right
// version).
func (s *ServerStats) Hellos() uint64 { return s.hellos.Load() }

// SizeMismatches reports fetches that found a stored blob shorter than the
// requested read and were answered with an integrity error frame instead
// of a zero-filled tail.
func (s *ServerStats) SizeMismatches() uint64 { return s.sizeErrs.Load() }

// CorruptBlobs reports fetches that found a stored blob failing its
// checksum and were answered with an integrity error frame.
func (s *ServerStats) CorruptBlobs() uint64 { return s.corrupt.Load() }

// WireRejects reports pushes whose payload CRC trailer failed
// verification; the payload was discarded, never stored.
func (s *ServerStats) WireRejects() uint64 { return s.wireRejects.Load() }

// Sheds reports requests rejected by admission control with an overload
// frame instead of being queued.
func (s *ServerStats) Sheds() uint64 { return s.sheds.Load() }

// String implements fmt.Stringer.
func (s *ServerStats) String() string {
	return fmt.Sprintf("conns=%d frames=%d badFrames=%d oversize=%d hellos=%d sizeMismatch=%d corruptBlobs=%d wireRejects=%d sheds=%d storeFails=%d",
		s.Conns(), s.Frames(), s.BadFrames(), s.OversizeRejects(), s.Hellos(), s.SizeMismatches(), s.CorruptBlobs(), s.WireRejects(), s.Sheds(), s.StoreFails())
}

// BlobStore is what a Server needs from its backing store. *remote.Store
// (in-memory) and *remote.DurableStore (WAL + snapshots) both satisfy it;
// a store may refuse a write — a durable store whose log append failed
// must not let the server ack — which the server answers with an error
// frame.
type BlobStore interface {
	Put(key uint64, src []byte) error
	Get(key uint64, dst []byte) (bool, error)
	Delete(key uint64) error
}

// Server serves a BlobStore over TCP. Create with NewServer, then call
// Serve (blocking) or rely on the background goroutine started by ListenAndServe.
type Server struct {
	store     BlobStore
	ln        net.Listener
	stats     ServerStats
	admission atomic.Pointer[Admission]

	// gen/durable are what the hello response advertises (see the
	// protocol comment above); SetGeneration installs them before serving.
	gen     atomic.Uint64
	durable atomic.Bool

	draining atomic.Bool    // Shutdown started: finish the current frame, then hang up
	wg       sync.WaitGroup // live connection handlers

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// NewServer returns a server exposing store.
func NewServer(store BlobStore) *Server {
	return &Server{store: store, conns: make(map[net.Conn]struct{})}
}

// SetGeneration installs the restart generation the server advertises in
// hello responses, and whether the backing store is durable (recovered
// from local WAL + snapshot state rather than starting empty). Call before
// ListenAndServe; a generation of 0 means "not advertised" and clients
// ignore it.
func (s *Server) SetGeneration(gen uint64, durable bool) {
	s.gen.Store(gen)
	s.durable.Store(durable)
}

// Stats exposes the server's protocol-event counters.
func (s *Server) Stats() *ServerStats { return &s.stats }

// Store exposes the backing blob store (for stats reporters).
func (s *Server) Store() BlobStore { return s.store }

// EnableAdmission installs an admission controller built from cfg and
// returns it (for stats registration). Every request after the hello is
// subject to shedding; with no controller installed the server accepts
// everything.
func (s *Server) EnableAdmission(cfg AdmissionConfig) *Admission {
	a := NewAdmission(cfg)
	s.admission.Store(a)
	return a
}

// Admission reports the installed admission controller, nil if disabled.
func (s *Server) Admission() *Admission { return s.admission.Load() }

// ListenAndServe binds addr (e.g. "127.0.0.1:0") and serves in a background
// goroutine. It returns the bound address so callers using port 0 can find
// the ephemeral port.
func (s *Server) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("fabric: listen %s: %w", addr, err)
	}
	s.ln = ln
	go s.serve()
	return ln.Addr().String(), nil
}

func (s *Server) serve() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			// Refuse the straggler but keep accepting until the
			// listener itself is torn down, so a conn racing Close
			// cannot leave later dials hanging in the backlog.
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.stats.conns.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	// admStart/admPending track a frame admitted but not yet finished, so
	// a connection dying mid-service still releases its admission slot
	// (a leaked slot would shrink the bounded queue forever).
	var admStart time.Time
	admPending := false
	defer func() {
		if admPending {
			if adm := s.admission.Load(); adm != nil {
				adm.Done(uint64(time.Since(admStart).Nanoseconds()))
			}
		}
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	if !s.hello(r, w) {
		return
	}
	var hdr [21]byte
	for {
		if s.draining.Load() {
			// Shutdown in progress: the previous frame was fully served
			// and acked; hang up now instead of reading the next request.
			// The client's retry machinery treats the close like any
			// other connection loss.
			return
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		op := hdr[0]
		key := binary.BigEndian.Uint64(hdr[1:9])
		length := binary.BigEndian.Uint32(hdr[9:13])
		deadlineNs := binary.BigEndian.Uint64(hdr[13:21])
		if length > maxPayload {
			// Answer with an error frame rather than silently
			// dropping the connection; the client sees a definite
			// rejection. After an oversize opPush the stream cannot
			// be resynchronized (an unread payload of unknown size
			// follows), so the connection is closed after the frame;
			// opFetch/opDelete carry no payload and the stream stays
			// in sync, so those connections keep serving.
			s.stats.oversize.Add(1)
			w.WriteByte(ackErr)
			w.Flush()
			if op == opPush {
				return
			}
			continue
		}
		if adm := s.admission.Load(); adm != nil {
			if v := adm.OfferEstimate(deadlineNs); v.Shed() {
				// A shed push's payload and CRC trailer are already on
				// the wire; consume them so the stream stays in sync for
				// the next request.
				if op == opPush {
					if _, err := io.CopyN(io.Discard, r, int64(length)+crcLen); err != nil {
						return
					}
				}
				s.stats.sheds.Add(1)
				if err := w.WriteByte(ackOverloaded); err != nil {
					return
				}
				if err := w.Flush(); err != nil {
					return
				}
				continue
			}
			admPending = true
			admStart = time.Now()
		}
		switch op {
		case opFetch:
			lease := bufpool.Get(int(length))
			buf := lease.Bytes()
			found, err := s.store.Get(key, buf)
			if err != nil {
				// The stored blob is corrupt (bad checksum) or
				// truncated (shorter than the read): answer an
				// integrity error frame instead of fabricating a
				// zero-filled tail. No payload follows, so the
				// stream stays in sync.
				if errors.Is(err, remote.ErrSizeMismatch) {
					s.stats.sizeErrs.Add(1)
				} else {
					s.stats.corrupt.Add(1)
				}
				lease.Release()
				if werr := w.WriteByte(ackCorrupt); werr != nil {
					return
				}
				break
			}
			flag := flagAbsent
			if found {
				flag = flagFound
			}
			if err := w.WriteByte(flag); err != nil {
				lease.Release()
				return
			}
			if _, err := w.Write(buf); err != nil {
				lease.Release()
				return
			}
			var crc [crcLen]byte
			binary.BigEndian.PutUint32(crc[:], payloadCRC(buf))
			lease.Release()
			if _, err := w.Write(crc[:]); err != nil {
				return
			}
		case opPush:
			lease := bufpool.Get(int(length))
			buf := lease.Bytes()
			if _, err := io.ReadFull(r, buf); err != nil {
				lease.Release()
				return
			}
			var crc [crcLen]byte
			if _, err := io.ReadFull(r, crc[:]); err != nil {
				lease.Release()
				return
			}
			if binary.BigEndian.Uint32(crc[:]) != payloadCRC(buf) {
				// The payload was damaged in flight. Discard it —
				// storing it would turn transient wire corruption
				// into durable corruption — and tell the client,
				// which retries the (idempotent) push.
				s.stats.wireRejects.Add(1)
				lease.Release()
				if err := w.WriteByte(ackCorrupt); err != nil {
					return
				}
				break
			}
			ack := ackOK
			err := s.store.Put(key, buf)
			lease.Release()
			if err != nil {
				// The store refused the write (e.g. a durable store whose
				// WAL append failed). Never ack what was not made durable:
				// the client sees a definite error and retries elsewhere.
				s.stats.storeFails.Add(1)
				ack = ackErr
			}
			if err := w.WriteByte(ack); err != nil {
				return
			}
		case opDelete:
			ack := ackOK
			if err := s.store.Delete(key); err != nil {
				s.stats.storeFails.Add(1)
				ack = ackErr
			}
			if err := w.WriteByte(ack); err != nil {
				return
			}
		default:
			s.stats.badFrames.Add(1)
			return
		}
		s.stats.frames.Add(1)
		if err := w.Flush(); err != nil {
			return
		}
		if admPending {
			if adm := s.admission.Load(); adm != nil {
				adm.Done(uint64(time.Since(admStart).Nanoseconds()))
			}
			admPending = false
		}
	}
}

// hello runs the connection's opening handshake (see the protocol comment
// above) and reports whether the connection may go on to serve requests.
// Anything but a hello with the magic and protoVersion is a bad frame: the
// caller closes the connection without answering it.
func (s *Server) hello(r *bufio.Reader, w *bufio.Writer) bool {
	var hdr [13]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return false
	}
	if hdr[0] != opHello || binary.BigEndian.Uint64(hdr[1:9]) != helloMagic ||
		binary.BigEndian.Uint32(hdr[9:13]) != protoVersion {
		s.stats.badFrames.Add(1)
		return false
	}
	var resp [11]byte
	resp[0] = ackHello
	resp[1] = protoVersion
	if s.durable.Load() {
		resp[2] |= helloGenDurable
	}
	binary.BigEndian.PutUint64(resp[3:11], s.gen.Load())
	if _, err := w.Write(resp[:]); err != nil {
		return false
	}
	s.stats.hellos.Add(1)
	s.stats.frames.Add(1)
	return w.Flush() == nil
}

// Close shuts the listener and all live connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if s.ln != nil {
		return s.ln.Close()
	}
	return nil
}

// Shutdown drains the server gracefully: stop accepting new connections,
// let every in-flight request finish and be acked, then hang up. Handlers
// parked in a read for the next request are unblocked by a short read
// deadline; grace bounds the whole drain — connections still busy when it
// expires are closed hard (exactly what Close would have done). Returns
// nil if the drain completed within grace, ErrClosed if the server was
// already closed, and an error describing the forced close otherwise.
func (s *Server) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	// Unblock handlers idling in ReadFull on the next header: a short read
	// deadline turns the park into an error return. Half the grace leaves
	// the second half for genuinely in-flight frames to finish writing.
	wake := time.Now().Add(grace / 2)
	if grace <= 0 {
		wake = time.Now()
	}
	for c := range s.conns {
		c.SetReadDeadline(wake)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var timeout <-chan time.Time
	if grace > 0 {
		tm := time.NewTimer(grace)
		defer tm.Stop()
		timeout = tm.C
	} else {
		ch := make(chan time.Time)
		close(ch)
		timeout = ch
	}
	select {
	case <-done:
		return nil
	case <-timeout:
		s.mu.Lock()
		n := len(s.conns)
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		if n > 0 {
			return fmt.Errorf("fabric: shutdown grace expired, closed %d connections hard", n)
		}
		return nil
	}
}

// DialOptions tunes a TCPTransport's fault handling.
type DialOptions struct {
	// Retry bounds per-operation re-issues; zero fields take defaults
	// (4 attempts, 1ms base backoff, 50ms cap).
	Retry RetryPolicy
	// OpTimeout is the per-operation deadline covering the request write
	// and response read of one attempt (default 2s).
	OpTimeout time.Duration
	// Seed seeds the deterministic backoff jitter (see RetryPolicy). The
	// zero seed selects sim.NewRNG's fixed default, so the schedule is
	// reproducible even when unset.
	Seed uint64
	// Budget bounds retries across all operations of the transport (see
	// RetryBudget). Nil gives the transport a private default budget;
	// pass a shared one to bound several transports' combined retry
	// volume (e.g. the members of a ReplicaSet).
	Budget *RetryBudget
}

// TCPTransport is an ErrorTransport backed by a real TCP connection to a
// Server speaking the one wire protocol above. Its methods surface typed
// errors, apply per-operation deadlines, retry with deterministic-jitter
// backoff, and transparently reconnect (with a fresh hello) after the
// connection is marked dead. Every payload crossing the wire carries a
// CRC32-C trailer; corruption in flight is detected on receipt
// (ErrIntegrity, counted in Stats.ChecksumFaults) and healed by the retry
// loop instead of being handed to the caller. The server must be built
// from the same commit: a peer that answers the hello with another version
// is a permanent ErrProtocol. It is safe for concurrent use.
type TCPTransport struct {
	addr      string
	policy    RetryPolicy
	opTimeout time.Duration
	budget    *RetryBudget
	stats     Stats

	mu          sync.Mutex
	conn        net.Conn
	r           *bufio.Reader
	w           *bufio.Writer
	helloed     bool     // the live connection completed its hello
	dl          Deadline // deadline of the operation currently holding mu (zero = none)
	peerGen     uint64   // restart generation from the last hello (0 = never seen)
	peerDurable bool     // the peer advertised a durable (recovered) store
	rng         *sim.RNG
	closed      bool
}

// IdentityReporter is implemented by transports that learn the peer's
// restart generation from the hello exchange. A ReplicaSet uses it to
// tell a restarted replica (generation changed) from a flaky link, and the
// durable bit to choose between a delta rejoin (repair only the keys
// written during its downtime) and a full resync.
type IdentityReporter interface {
	// PeerIdentity reports the restart generation the peer advertised in
	// its last hello (0 when the peer never advertised one) and whether it
	// declared its store durable.
	PeerIdentity() (gen uint64, durable bool)
}

// PeerIdentity implements IdentityReporter. The values persist across
// reconnects: they describe the peer as of the most recent completed
// hello, not the current connection.
func (t *TCPTransport) PeerIdentity() (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peerGen, t.peerDurable
}

// Dial connects to a Server at addr with default fault-handling options.
func Dial(addr string) (*TCPTransport, error) {
	return DialWith(addr, DialOptions{})
}

// DialWith connects to a Server at addr with explicit fault-handling
// options. The initial dial is not retried: an unreachable server at
// construction time is a configuration error the caller should see
// immediately. Once constructed, the transport survives server restarts by
// reconnecting on demand (with a fresh hello each time).
func DialWith(addr string, opts DialOptions) (*TCPTransport, error) {
	t := &TCPTransport{
		addr:      addr,
		policy:    opts.Retry.withDefaults(),
		opTimeout: opts.OpTimeout,
		budget:    opts.Budget,
		rng:       sim.NewRNG(opts.Seed),
	}
	if t.budget == nil {
		t.budget = NewRetryBudget(0, 0)
	}
	if t.opTimeout <= 0 {
		t.opTimeout = 2 * time.Second
	}
	t.mu.Lock()
	err := t.ensureConn()
	t.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("fabric: dial %s: %w", addr, err)
	}
	// The constructor's dial is not a reconnect.
	t.stats.reconnects.Store(0)
	return t, nil
}

// Stats exposes the transport's fault-handling counters.
func (t *TCPTransport) Stats() *Stats { return &t.stats }

// RetryBudget exposes the transport's retry budget (for gauges and for
// sharing with sibling transports at construction time via DialOptions).
func (t *TCPTransport) RetryBudget() *RetryBudget { return t.budget }

// markDead tears down the current connection so the next attempt re-dials.
// Called under t.mu after any mid-operation error: a partially consumed
// response would otherwise desynchronize the stream and every later reply
// would be misparsed against the wrong request.
func (t *TCPTransport) markDead() {
	if t.conn != nil {
		t.conn.Close()
		t.conn = nil
		t.r = nil
		t.w = nil
		t.helloed = false
	}
}

// ensureConn re-dials if the connection was marked dead. The attached
// connection starts with its hello pending. Caller holds t.mu.
func (t *TCPTransport) ensureConn() error {
	if t.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", t.addr, t.opTimeout)
	if err != nil {
		return err
	}
	t.conn = conn
	t.r = bufio.NewReader(conn)
	t.w = bufio.NewWriter(conn)
	t.stats.reconnects.Add(1)
	return nil
}

// ensureHello sends the hello on a freshly attached connection and records
// the peer's identity from the answer. It runs lazily on the first
// operation over each connection (not at dial time), so DialWith stays a
// pure reachability check and handshake failures flow through the
// per-operation retry/typed-error machinery. A connection lost during the
// hello is retried like any other; an answer that is not this protocol's
// hello response is a permanent ErrProtocol. Caller holds t.mu.
func (t *TCPTransport) ensureHello() error {
	if t.helloed {
		return nil
	}
	t.conn.SetDeadline(time.Now().Add(t.opTimeout))
	var hdr [13]byte
	hdr[0] = opHello
	binary.BigEndian.PutUint64(hdr[1:9], helloMagic)
	binary.BigEndian.PutUint32(hdr[9:13], protoVersion)
	_, err := t.w.Write(hdr[:])
	if err == nil {
		err = t.w.Flush()
	}
	var resp [11]byte
	if err == nil {
		_, err = io.ReadFull(t.r, resp[:])
	}
	if err != nil {
		t.markDead()
		return err
	}
	if resp[0] != ackHello || resp[1] != protoVersion {
		t.markDead()
		return permanent(fmt.Errorf("%w: hello answered %#x version %d, want version %d", ErrProtocol, resp[0], resp[1], protoVersion))
	}
	t.peerDurable = resp[2]&helloGenDurable != 0
	t.peerGen = binary.BigEndian.Uint64(resp[3:11])
	t.helloed = true
	return nil
}

// do runs one operation attempt loop under the retry policy, bounded by
// the operation deadline and the transport's retry budget. op executes a
// full request/response exchange on the live connection; any error marks
// the connection dead (forcing a clean reconnect) and is classified into
// the typed taxonomy. Permanent errors stop the loop immediately. Three
// overload-control rules shape the loop:
//
//   - an expired deadline stops the loop with ErrDeadlineExceeded, and a
//     result that arrives past the deadline is reported the same way (the
//     caller never consumes it); each attempt's socket deadline and each
//     backoff sleep are clamped to the remaining budget;
//   - a retry (any attempt past the first, except after an overload
//     reject) must withdraw a token from the retry budget — an empty
//     bucket surfaces the last error instead of re-issuing, so a
//     struggling server sees load shrink instead of multiply;
//   - an overload reject (ackOverloaded) is backpressure, not failure:
//     the connection stays up (the reject frame leaves the stream in
//     sync), the budget is not charged, and the attempt is retried after
//     the normal backoff.
func (t *TCPTransport) do(dl Deadline, op func() error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return permanent(ErrClosed)
	}
	t.dl = dl
	defer func() { t.dl = Deadline{} }()
	deposited := false
	var last error
	for attempt := 1; attempt <= t.policy.MaxAttempts; attempt++ {
		if attempt > 1 {
			if !isOverloaded(last) && !t.budget.TryRetry() {
				t.stats.budgetExhausted.Add(1)
				break
			}
			t.stats.retries.Add(1)
			d := t.policy.backoff(attempt-1, t.rng)
			if !dl.IsZero() {
				if rem := time.Duration(dl.RemainingNanos()); d > rem {
					d = rem
				}
			}
			time.Sleep(d)
		}
		if dl.Expired() {
			last = errDeadline("budget exhausted before attempt")
			t.stats.record(last)
			break
		}
		err := t.ensureConn()
		if err == nil {
			err = t.ensureHello()
		}
		if err != nil {
			last = classify(err)
			t.stats.record(last)
			if isPermanent(err) {
				break
			}
			continue
		}
		to := t.opTimeout
		if !dl.IsZero() {
			if rem := time.Duration(dl.RemainingNanos()); rem < to {
				to = rem
			}
		}
		t.conn.SetDeadline(time.Now().Add(to))
		if err := op(); err == nil {
			if !deposited {
				t.budget.OnRequest()
			}
			if dl.Expired() {
				// The exchange succeeded but past its budget: the result
				// must not be consumed. The connection itself is healthy.
				last = errDeadline("completed past deadline")
				t.stats.record(last)
				break
			}
			return nil
		} else {
			last = classify(err)
			t.stats.record(last)
			if !deposited && !isOverloaded(last) {
				// A serviced-and-failed exchange still earns budget; an
				// overload reject is backpressure and earns nothing.
				t.budget.OnRequest()
				deposited = true
			}
			if !isOverloaded(last) {
				t.markDead()
			}
			if isPermanent(err) {
				break
			}
		}
	}
	return last
}

func (t *TCPTransport) writeHeader(op byte, key uint64, length uint32) error {
	var hdr [21]byte
	hdr[0] = op
	binary.BigEndian.PutUint64(hdr[1:9], key)
	binary.BigEndian.PutUint32(hdr[9:13], length)
	// The operation's remaining budget lets the server shed requests it
	// cannot finish in time.
	binary.BigEndian.PutUint64(hdr[13:21], t.dl.RemainingNanos())
	_, err := t.w.Write(hdr[:])
	return err
}

// TryFetchUntil implements ErrorTransport: a fetch bounded end to end by
// dl. The remaining budget rides in each request header, bounds each
// attempt's socket deadline, and clamps retry backoff; an operation whose
// budget runs out — or whose result arrives late — fails with
// ErrDeadlineExceeded and the late result is discarded.
//
// There is no TryFetchAsync here: over a real network there is no
// simulated overlap to model, so prefetchers going through the
// fabric.FetchAsync helper get an ordinary blocking fetch with identical
// retry and stat accounting.
func (t *TCPTransport) TryFetchUntil(key uint64, dst []byte, dl Deadline) (bool, error) {
	if len(dst) > maxPayload {
		return false, fmt.Errorf("%w: fetch of %d bytes", ErrPayloadTooLarge, len(dst))
	}
	var found bool
	err := t.do(dl, func() error {
		if err := t.writeHeader(opFetch, key, uint32(len(dst))); err != nil {
			return err
		}
		if err := t.w.Flush(); err != nil {
			return err
		}
		flag, err := t.r.ReadByte()
		if err != nil {
			return err
		}
		switch flag {
		case flagAbsent, flagFound:
		case ackOverloaded:
			// Admission control shed the request before service: pure
			// backpressure. No payload follows, the stream stays in
			// sync, and do() retries without charging the budget.
			return fmt.Errorf("%w: fetch shed", ErrOverloaded)
		case ackErr:
			return permanent(fmt.Errorf("%w: server rejected fetch", ErrProtocol))
		case ackCorrupt:
			// The blob is corrupt at rest on this node: retrying the
			// same node cannot help, so the error is permanent here —
			// a ReplicaSet recovers by reading another replica.
			return permanent(fmt.Errorf("%w: server reports blob corrupt or truncated", ErrIntegrity))
		default:
			return permanent(fmt.Errorf("%w: fetch flag %#x", ErrProtocol, flag))
		}
		if _, err := io.ReadFull(t.r, dst); err != nil {
			return err
		}
		var crc [crcLen]byte
		if _, err := io.ReadFull(t.r, crc[:]); err != nil {
			return err
		}
		if binary.BigEndian.Uint32(crc[:]) != payloadCRC(dst) {
			// In-flight corruption: the connection's framing may
			// also be suspect, so the conn is torn down (do's
			// error path) and the retry re-reads over a fresh one.
			return fmt.Errorf("%w: fetch payload CRC mismatch", ErrIntegrity)
		}
		found = flag == flagFound
		return nil
	})
	if err != nil {
		return false, err
	}
	return found, nil
}

// TryPushUntil implements ErrorTransport (see TryFetchUntil).
func (t *TCPTransport) TryPushUntil(key uint64, src []byte, dl Deadline) error {
	if len(src) > maxPayload {
		return fmt.Errorf("%w: push of %d bytes", ErrPayloadTooLarge, len(src))
	}
	return t.do(dl, func() error {
		if err := t.writeHeader(opPush, key, uint32(len(src))); err != nil {
			return err
		}
		if _, err := t.w.Write(src); err != nil {
			return err
		}
		var crc [crcLen]byte
		binary.BigEndian.PutUint32(crc[:], payloadCRC(src))
		if _, err := t.w.Write(crc[:]); err != nil {
			return err
		}
		if err := t.w.Flush(); err != nil {
			return err
		}
		return t.readAck("push")
	})
}

// TryDeleteUntil implements ErrorTransport (see TryFetchUntil).
func (t *TCPTransport) TryDeleteUntil(key uint64, dl Deadline) error {
	return t.do(dl, func() error {
		if err := t.writeHeader(opDelete, key, 0); err != nil {
			return err
		}
		if err := t.w.Flush(); err != nil {
			return err
		}
		return t.readAck("delete")
	})
}

func (t *TCPTransport) readAck(op string) error {
	ack, err := t.r.ReadByte()
	if err != nil {
		return err
	}
	switch ack {
	case ackOK:
		return nil
	case ackOverloaded:
		// Backpressure: the request was shed before service (a shed push
		// was consumed and discarded, never stored). Retryable without a
		// budget charge; see TryFetchUntil's flag handling.
		return fmt.Errorf("%w: %s shed", ErrOverloaded, op)
	case ackErr:
		return permanent(fmt.Errorf("%w: server rejected %s", ErrProtocol, op))
	case ackCorrupt:
		// The server saw a damaged CRC trailer: the payload was
		// corrupted in flight and discarded. Retrying re-sends the
		// intact source buffer, so this is retryable.
		return fmt.Errorf("%w: server rejected %s payload CRC", ErrIntegrity, op)
	default:
		return permanent(fmt.Errorf("%w: %s ack %#x", ErrProtocol, op, ack))
	}
}

// Close closes the underlying connection; all later operations fail with
// ErrClosed.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	if t.conn == nil {
		return nil
	}
	err := t.conn.Close()
	t.conn = nil
	t.r = nil
	t.w = nil
	return err
}

var _ ErrorTransport = (*TCPTransport)(nil)
var _ IdentityReporter = (*TCPTransport)(nil)
var _ BlobStore = (*remote.Store)(nil)
var _ BlobStore = (*remote.DurableStore)(nil)
