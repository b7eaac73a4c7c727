// Package rpc is the communication substrate standing in for Mercury with
// the Margo wrappers (paper §III-B): operation-keyed handlers executed on
// a bounded pool (Margo's Argobots execution streams), opaque binary
// payloads, and a bulk-transfer interface through which a daemon pulls
// write data from — or pushes read data into — a buffer the client
// exposed, the role RDMA plays on the paper's Omni-Path fabric.
//
// A handler registered as a point op (RegisterPoint) is one the server
// declares bounded by its own frame: its work is at most one data
// syscall per span of bytes the frame carries or asks for (or one
// bounded key-value operation), and it never waits on another request.
// A stream transport runs such a request — bulk or not — on the
// goroutine that read it off the connection, where it waits for its
// pool slot like any other, and the frames behind it on that connection
// wait for it.
//
// A client makes every call through Call, which returns once the reply
// has arrived, as a Margo forward does: the caller runs a goroutine per
// daemon when it wants calls in flight at once. A call's bulk region is
// a list of windows; a transport takes the list as it is (Vectored) or
// gets it staged in one contiguous region (StagedCall).
//
// Transports live in internal/transport: an in-process one whose bulk
// transfers are zero-copy (the "RDMA" of the in-process cluster) and a
// stream connection that inlines bulk bytes into the frame over TCP or
// passes them by reference through a shared-memory segment.
package rpc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Op identifies a registered RPC operation, like a Mercury RPC id.
type Op uint16

// Bulk is the server-side view of the client's exposed buffer region for
// one call.
//
// Bytes, Writable and Commit hand the handler a direct view of the
// transport's bulk region — the wire-read region for BulkIn, the
// outgoing region for BulkOut — the roles of an RDMA get and put, with
// no copy of their own, so the data path touches each byte at most once
// per direction. Views are valid only until the handler returns;
// retaining one is a use-after-release. A BulkOut handler whose reply
// already lies in memory of its own lends it instead (Gather).
type Bulk interface {
	// Len returns the size of the exposed region.
	Len() int
	// Bytes returns the BulkIn region itself, without copying. The view
	// is read-only by convention and dies with the handler invocation.
	Bytes() ([]byte, error)
	// Writable returns an n-byte outgoing region the handler fills in
	// place (n must not exceed Len). The transport sends nothing until
	// Commit declares how much of the region is meaningful.
	Writable(n int) ([]byte, error)
	// Commit declares that the first n bytes of the Writable region are
	// ready to travel back to the client. Bytes past n are never sent.
	// The BulkOut contract, for every carrier: when the call succeeds
	// every byte of every window the client exposed is defined — the
	// first n are the server's, the rest are zeros, cleared by the
	// carrier, which alone knows how many bytes it delivered. Callers
	// never pre-clear a region (docs/INVARIANTS.md).
	Commit(n int) error
}

// Gatherer is the Bulk extension of a carrier that can send a BulkOut
// reply straight from memory it does not own — the inline stream's
// writev. Gather hands it the reply as windows, sent in order as the
// committed bytes (their total must not exceed Len), and the function
// that gives them back. On success the carrier owns release and runs it
// exactly once, after the reply was written or the call failed, whatever
// else the handler does; on error it never runs it. Handlers call the
// Gather function, never the method.
type Gatherer interface {
	Gather(windows [][]byte, release func()) error
}

// Gather replies to a BulkOut call with the bytes of windows, in order,
// and runs release exactly once, when nothing reads the windows any
// more. A carrier that can gather (Gatherer) sends them where they lie;
// any other gets them copied into its Writable region — the one pass a
// read into that region would have made — and committed, and release
// runs before Gather returns. A window that already lies where the copy
// would put it (a handler that read part of the reply into the Writable
// region itself) is not copied again. Bytes of the region past the
// windows' total are the carrier's to clear, as after Commit. The
// fallback's copy runs in user space, where a fault kills the process:
// lend a non-gathering carrier only memory that cannot fault — never a
// file mapping, whose page past a shrunk file's end raises SIGBUS.
func Gather(b Bulk, windows [][]byte, release func()) error {
	if g, ok := b.(Gatherer); ok {
		err := g.Gather(windows, release)
		if err != nil {
			release()
		}
		return err
	}
	defer release()
	n := 0
	for _, w := range windows {
		n += len(w)
	}
	dst, err := b.Writable(n)
	if err != nil {
		return err
	}
	for _, w := range windows {
		if len(w) > 0 && &w[0] != &dst[0] {
			copy(dst, w)
		}
		dst = dst[len(w):]
	}
	return b.Commit(n)
}

// Handler serves one operation. req is the request payload; the returned
// bytes form the response payload. Returned errors travel to the client as
// a RemoteError.
type Handler func(req []byte, bulk Bulk) ([]byte, error)

// RemoteError is a handler failure surfaced at the caller.
type RemoteError struct {
	// Msg is the handler error text.
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return "rpc: remote: " + e.Msg }

// Errors returned by the framework itself.
var (
	// ErrUnknownOp reports a call to an unregistered operation.
	ErrUnknownOp = errors.New("rpc: unknown operation")
	// ErrServerClosed reports a call into a stopped server.
	ErrServerClosed = errors.New("rpc: server closed")
)

// BulkDir declares how the server will access the exposed buffer,
// mirroring Mercury's bulk access flags. Transports that must move the
// buffer over a wire use it to ship bytes in only the needed direction.
type BulkDir uint8

const (
	// BulkNone exposes no buffer.
	BulkNone BulkDir = iota
	// BulkIn lets the server read the buffer (client → server, the
	// write path).
	BulkIn
	// BulkOut lets the server fill the buffer (server → client, the
	// read path).
	BulkOut
)

// Conn is a client's connection to one server. Implementations are safe
// for concurrent use; calls block until the response arrives.
type Conn interface {
	// Call invokes op with payload. bulk, when non-nil, is the local
	// buffer region exposed to the server to read (dir=BulkIn) or fill
	// (dir=BulkOut) during the call.
	Call(op Op, payload, bulk []byte, dir BulkDir) ([]byte, error)
	// Close releases the connection.
	Close() error
}

// Trace identifies one sampled RPC across the wire. The client mints
// the ID, the transport carries it in the frame's trailing trace
// extension (protocol v7), and the daemon's dispatch observer stamps
// its span timings with the same ID — so one slow call can be followed
// client → transport → daemon by grepping the structured logs on both
// ends. The zero Trace means "not sampled" and adds nothing to the
// frame.
type Trace struct {
	// ID is the sampled call's random identity; 0 means unsampled.
	ID uint64
	// Flags carries trace options (TraceSampled today).
	Flags uint8
}

// TraceSampled marks a trace the client chose for emission. It is set
// on every minted trace; further bits are reserved.
const TraceSampled uint8 = 1 << 0

// Sampled reports whether the trace should be carried and logged.
func (t Trace) Sampled() bool { return t.ID != 0 }

// MaxBulk is the most bytes one call's bulk region may hold, in either
// direction — the one transfer a stream frame is sized for (transport's
// maxFrame is twice it: the transfer plus room for its payload), and well
// inside a shared-memory segment. A caller with more to move splits it
// across calls: the client cuts chunk I/O to one daemon into groups of at
// most MaxBulk bytes.
const MaxBulk = 64 << 20

// Vectored is the optional Conn extension of transports that take a
// call's region as a list of windows, the one call shape of this
// package: CallVector runs op with the windows of bulk, in order, as its
// region and returns once the reply has arrived, the call failed or it
// timed out. No windows exposes no buffer, whatever dir says. A returned
// call holds no reference to its windows: the server read every BulkIn
// byte, and its BulkOut bytes landed in the windows directly, under the
// claim and zero-tail rules of the BulkOut contract, window by window. A
// sampled tr travels with the call.
type Vectored interface {
	CallVector(op Op, payload []byte, bulk [][]byte, dir BulkDir, tr Trace) ([]byte, error)
}

// Call runs op over c with the windows of bulk as its region: the one
// entry point of every caller. A Conn without the Vectored extension
// gets the staging fallback (StagedCall over its Call) and the trace is
// dropped — an observability hint, never a correctness dependency.
func Call(c Conn, op Op, payload []byte, bulk [][]byte, dir BulkDir, tr Trace) ([]byte, error) {
	if v, ok := c.(Vectored); ok {
		return v.CallVector(op, payload, bulk, dir, tr)
	}
	return StagedCall(c.Call, op, payload, bulk, dir)
}

// Region is the window list of one contiguous region: none for nil.
func Region(b []byte) [][]byte {
	if b == nil {
		return nil
	}
	return [][]byte{b}
}

// StagedCall is the one staging fallback: it runs op with the windows of
// bulk as its region over call, a carrier that can expose only one
// contiguous region. No window is a plain call and one window is lent as
// it is; a list travels through one pooled region — its bytes copied in,
// in order, for BulkIn, and copied out to the windows, in order, after a
// BulkOut call: the carrier cleared the region past what the server
// sent, so a short reply clears each window's tail. It allocates
// nothing of its own.
func StagedCall(call func(op Op, payload, bulk []byte, dir BulkDir) ([]byte, error), op Op, payload []byte, bulk [][]byte, dir BulkDir) ([]byte, error) {
	switch {
	case len(bulk) == 0 || dir == BulkNone:
		return call(op, payload, nil, BulkNone)
	case len(bulk) == 1:
		return call(op, payload, bulk[0], dir)
	}
	n := 0
	for _, w := range bulk {
		n += len(w)
	}
	region := GetBuf(n)
	if dir == BulkIn {
		region = region[:0]
		for _, w := range bulk {
			region = append(region, w...)
		}
	}
	resp, err := call(op, payload, region, dir)
	if err == nil && dir == BulkOut {
		Scatter(bulk, region)
	}
	PutBuf(region)
	return resp, err
}

// Scatter copies src out to the windows of dest, in order.
func Scatter(dest [][]byte, src []byte) {
	for _, w := range dest {
		src = src[copy(w, src):]
	}
}

// ServerStats counts server-side activity.
type ServerStats struct {
	// Requests is the number of handled calls.
	Requests uint64
	// Errors is the number of calls whose handler returned an error.
	Errors uint64
}

// WireCounters aggregate transport-level activity below the dispatch
// layer: frames and bytes moved, scatter-gather writes issued, and
// shared-memory fast-path calls served. Transports increment them on the
// server they serve (Server.Wire); the daemon copies them into its
// operation counters (Daemon.Stats) so the wire tier's behaviour is
// observable end to end.
type WireCounters struct {
	// FramesIn/FramesOut count request frames decoded and response
	// frames written.
	FramesIn, FramesOut atomic.Uint64
	// BytesIn/BytesOut count wire bytes moved, length prefixes included.
	// On the shared-memory transport bulk bytes move through the mapped
	// segment, not the socket, so they are excluded here — the gap
	// between logical I/O volume and BytesIn/Out is the fast path's win.
	BytesIn, BytesOut atomic.Uint64
	// VectoredWrites counts responses sent as scatter-gather (writev)
	// header+bulk pairs instead of a joined frame.
	VectoredWrites atomic.Uint64
	// ShmCalls counts requests that arrived over the shared-memory
	// doorbell.
	ShmCalls atomic.Uint64
}

// Server dispatches operations to registered handlers on a bounded
// handler pool.
type Server struct {
	mu       sync.RWMutex
	handlers map[Op]entry
	closed   bool

	pool chan struct{}

	requests atomic.Uint64
	errors   atomic.Uint64
	wire     WireCounters

	// observer, when set, receives one event per dispatched request.
	// Stored atomically so transports dispatching concurrently never
	// block on registration.
	observer atomic.Pointer[Observer]
}

// Observer receives one event per dispatched request: the operation,
// the trace carried by the frame (zero when unsampled), how long the
// request waited for a handler-pool slot, how long the handler ran,
// and the handler's error. Implementations must be fast and
// non-blocking — the call happens on the dispatch path.
type Observer func(op Op, tr Trace, queueWait, handle time.Duration, err error)

// SetObserver installs obs (nil removes it). The daemon uses it to
// feed per-op latency histograms and emit trace events.
func (s *Server) SetObserver(obs Observer) {
	if obs == nil {
		s.observer.Store(nil)
		return
	}
	s.observer.Store(&obs)
}

// entry is one registered operation.
type entry struct {
	h     Handler
	point bool
}

// NewServer returns a server whose handler pool admits poolSize concurrent
// calls (Margo handler execution streams). poolSize <= 0 selects 16, a
// typical daemon configuration on a two-socket node. Every dispatch
// waits for a slot, a point op run inline by a stream transport
// included: while it waits, so does the connection it arrived on.
func NewServer(poolSize int) *Server {
	if poolSize <= 0 {
		poolSize = 16
	}
	return &Server{
		handlers: make(map[Op]entry),
		pool:     make(chan struct{}, poolSize),
	}
}

// Register installs the handler for op, replacing any previous one.
// Registration after serving starts is allowed but unusual.
func (s *Server) Register(op Op, h Handler) { s.register(op, entry{h: h}) }

// RegisterPoint installs h for op as a point op: a handler whose work is
// bounded by the frame itself — one read or write per span of bytes the
// frame carries (BulkIn) or asks for (BulkOut), or one bounded
// key-value operation — and that never waits on another request: it may
// meet a lock a running handler holds for its own bounded work, but
// never waits for a request to arrive, finish or drain. Stream
// transports run every request for a point op, bulk or not, inline on
// the connection's reader instead of on a goroutine of its own, so it
// starts on a warm stack and answers in arrival order; a handler whose
// work grows beyond its frame (a directory of chunk files, a batch, a
// scan) or that waits on other requests (an epoch drain) must use
// Register.
func (s *Server) RegisterPoint(op Op, h Handler) { s.register(op, entry{h: h, point: true}) }

func (s *Server) register(op Op, e entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[op] = e
}

// Point reports whether op was registered with RegisterPoint.
func (s *Server) Point(op Op) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.handlers[op].point
}

// Dispatch runs the handler for op, blocking while the pool is full.
// Transports call it once per decoded request.
func (s *Server) Dispatch(op Op, payload []byte, bulk Bulk) ([]byte, error) {
	return s.DispatchTrace(op, payload, bulk, Trace{})
}

// DispatchTrace is Dispatch carrying the request's trace to the
// observer. Queue-wait and handle times are measured only when an
// observer is installed; without one the path is exactly the old
// Dispatch.
func (s *Server) DispatchTrace(op Op, payload []byte, bulk Bulk, tr Trace) ([]byte, error) {
	s.mu.RLock()
	e, ok := s.handlers[op]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, ErrServerClosed
	}
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownOp, op)
	}
	obs := s.observer.Load()
	var t0 time.Time
	if obs != nil {
		t0 = time.Now()
	}
	s.pool <- struct{}{}
	defer func() { <-s.pool }()
	var t1 time.Time
	if obs != nil {
		t1 = time.Now()
	}
	s.requests.Add(1)
	resp, err := e.h(payload, bulk)
	if err != nil {
		s.errors.Add(1)
	}
	if obs != nil {
		(*obs)(op, tr, t1.Sub(t0), time.Since(t1), err)
	}
	return resp, err
}

// Close marks the server closed; subsequent dispatches fail.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{Requests: s.requests.Load(), Errors: s.errors.Load()}
}

// Wire returns the transport-level counters for this server. Transports
// serving it increment them; observers snapshot them.
func (s *Server) Wire() *WireCounters { return &s.wire }

// SliceBulk adapts a local byte slice to the Bulk interface. The
// in-process transport hands the client's buffer to the handler directly,
// so the handler's views are the client's bytes themselves.
type SliceBulk []byte

// Len implements Bulk.
func (b SliceBulk) Len() int { return len(b) }

// Bytes implements Bulk: the region is the client's buffer, so the view
// is genuinely zero-copy.
func (b SliceBulk) Bytes() ([]byte, error) { return b, nil }

// Writable implements Bulk. The handler writes straight into the
// client's buffer — the in-process analogue of an RDMA put with no
// staging at all.
func (b SliceBulk) Writable(n int) ([]byte, error) {
	if n > len(b) {
		return nil, fmt.Errorf("rpc: writable region of %d bytes exceeds exposed region %d", n, len(b))
	}
	return b[:n], nil
}

// Commit implements Bulk. In-process the bytes are already in place;
// only the bound is validated. A bare SliceBulk is a region, not a
// carrier: the conn that lends it (transport's mem conn) clears the
// bytes past what the handler produced.
func (b SliceBulk) Commit(n int) error {
	if n > len(b) {
		return fmt.Errorf("rpc: commit of %d bytes exceeds exposed region %d", n, len(b))
	}
	return nil
}
