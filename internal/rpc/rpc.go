// Package rpc is the communication substrate standing in for Mercury with
// the Margo wrappers (paper §III-B): operation-keyed handlers executed on
// a bounded pool (Margo's Argobots execution streams), opaque binary
// payloads, and a bulk-transfer interface through which a daemon pulls
// write data from — or pushes read data into — a buffer the client
// exposed, the role RDMA plays on the paper's Omni-Path fabric.
//
// Transports live in internal/transport: an in-process one whose bulk
// transfers are zero-copy (the "RDMA" of the in-process cluster) and a TCP
// one that inlines bulk bytes into the frame.
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
// Pull and Push are the copying accessors (an RDMA get/put). Bytes,
// Writable and Commit are their zero-copy counterparts: they hand the
// handler a direct view of the transport's bulk region — the wire-read
// region for BulkIn, the outgoing region for BulkOut — so the data path
// touches each byte at most once per direction. Views are valid only
// until the handler returns; retaining one is a use-after-release.
type Bulk interface {
	// Pull copies the client's buffer into p (an RDMA get). It fails if p
	// is longer than the exposed region.
	Pull(p []byte) error
	// Push copies p into the client's buffer (an RDMA put). It fails if p
	// is longer than the exposed region.
	Push(p []byte) error
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
	// BulkIn lets the server Pull from the buffer (client → server, the
	// write path).
	BulkIn
	// BulkOut lets the server Push into the buffer (server → client, the
	// read path).
	BulkOut
)

// Conn is a client's connection to one server. Implementations are safe
// for concurrent use; calls block until the response arrives.
type Conn interface {
	// Call invokes op with payload. bulk, when non-nil, is the local
	// buffer region exposed to the server for Pull (dir=BulkIn) or Push
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

// TraceCaller is the optional Conn extension of transports that can
// carry a Trace to the server. Transports lacking it serve the call
// untraced — the trace is an observability hint, never a correctness
// dependency.
type TraceCaller interface {
	CallTrace(op Op, payload, bulk []byte, dir BulkDir, tr Trace) ([]byte, error)
}

// CallTrace invokes op over c, carrying tr when the connection
// supports it and silently dropping it otherwise.
func CallTrace(c Conn, op Op, payload, bulk []byte, dir BulkDir, tr Trace) ([]byte, error) {
	if tc, ok := c.(TraceCaller); ok && tr.Sampled() {
		return tc.CallTrace(op, payload, bulk, dir, tr)
	}
	return c.Call(op, payload, bulk, dir)
}

// ScatterCaller is the optional Conn extension of transports that can
// land a BulkOut transfer in a scatter list: the windows of dest, in
// order, are the exposed region, and the server's bytes arrive in them
// directly — no contiguous staging buffer on the client. The claim and
// zero-tail rules of a single-window call hold window by window.
type ScatterCaller interface {
	CallScatter(op Op, payload []byte, dest [][]byte, tr Trace) ([]byte, error)
}

// CallScatter invokes op over c with the windows of dest as its BulkOut
// region (none exposes no buffer). Connections that cannot scatter get
// one pooled contiguous region, copied out to the windows afterwards.
func CallScatter(c Conn, op Op, payload []byte, dest [][]byte, tr Trace) ([]byte, error) {
	switch len(dest) {
	case 0:
		return CallTrace(c, op, payload, nil, BulkNone, tr)
	case 1:
		return CallTrace(c, op, payload, dest[0], BulkOut, tr)
	}
	if sc, ok := c.(ScatterCaller); ok {
		return sc.CallScatter(op, payload, dest, tr)
	}
	n := 0
	for _, w := range dest {
		n += len(w)
	}
	bulk := GetBuf(n)
	defer PutBuf(bulk)
	resp, err := CallTrace(c, op, payload, bulk, BulkOut, tr)
	if err != nil {
		return nil, err
	}
	Scatter(dest, bulk)
	return resp, nil
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
	handlers map[Op]Handler
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

// NewServer returns a server whose handler pool admits poolSize concurrent
// calls (Margo handler execution streams). poolSize <= 0 selects 16, a
// typical daemon configuration on a two-socket node.
func NewServer(poolSize int) *Server {
	if poolSize <= 0 {
		poolSize = 16
	}
	return &Server{
		handlers: make(map[Op]Handler),
		pool:     make(chan struct{}, poolSize),
	}
}

// Register installs the handler for op, replacing any previous one.
// Registration after serving starts is allowed but unusual.
func (s *Server) Register(op Op, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[op] = h
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
	h, ok := s.handlers[op]
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
	resp, err := h(payload, bulk)
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
// making Pull and Push zero-copy in spirit: the copy is the single memcpy
// RDMA itself would perform.
type SliceBulk []byte

// Pull implements Bulk.
func (b SliceBulk) Pull(p []byte) error {
	if len(p) > len(b) {
		return fmt.Errorf("rpc: bulk pull of %d bytes exceeds exposed region %d", len(p), len(b))
	}
	copy(p, b)
	return nil
}

// Push implements Bulk.
func (b SliceBulk) Push(p []byte) error {
	if len(p) > len(b) {
		return fmt.Errorf("rpc: bulk push of %d bytes exceeds exposed region %d", len(p), len(b))
	}
	copy(b, p)
	return nil
}

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
