package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// Pool stripes calls for one server across several underlying
// connections. A single TCP socket serializes every bulk frame behind one
// write mutex and one kernel send queue; with N sockets, large transfers
// from concurrent callers move in parallel — the per-node transport
// parallelism wide striping needs (paper §III-B, Fig. 4).
//
// Requests are spread round-robin by request id. A connection broken by
// a transport failure is closed and lazily re-dialed on the next call
// that lands on its slot; handler errors and call timeouts do not drop
// the connection.
type Pool struct {
	dial   func() (rpc.Conn, error)
	next   atomic.Uint64
	slots  []poolSlot
	closed atomic.Bool

	// acquireHist, when set, times slot acquisition (lock wait plus any
	// re-dial) — the client-side queue in front of the wire.
	acquireHist *telemetry.Histogram
	// connHook, when set, runs once on every connection the pool dials
	// (and once on already-dialed slots at installation), letting the
	// owner configure per-connection telemetry without knowing the
	// concrete transport.
	connHook func(rpc.Conn)
}

// SetAcquireHist installs the histogram timing slot acquisition. Call
// before the pool serves traffic; nil leaves timing disabled.
func (p *Pool) SetAcquireHist(h *telemetry.Histogram) { p.acquireHist = h }

// SetConnHook installs f, applying it to connections already dialed
// and to every future re-dial. Call before the pool serves traffic.
func (p *Pool) SetConnHook(f func(rpc.Conn)) {
	p.connHook = f
	if f == nil {
		return
	}
	for i := range p.slots {
		s := &p.slots[i]
		s.mu.Lock()
		if s.conn != nil {
			f(s.conn)
		}
		s.mu.Unlock()
	}
}

type poolSlot struct {
	mu   sync.Mutex
	conn rpc.Conn
}

// ErrPoolClosed reports a call into a closed pool.
var ErrPoolClosed = errors.New("transport: pool closed")

// NewPool returns a pool of n connections obtained from dial, all dialed
// lazily. n < 1 selects 1.
func NewPool(n int, dial func() (rpc.Conn, error)) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{dial: dial, slots: make([]poolSlot, n)}
}

// DialTCPPool connects a pool of n striped TCP connections to addr.
// n <= 1 degenerates to a single connection with reconnect-on-failure.
func DialTCPPool(addr string, timeout time.Duration, n int) (rpc.Conn, error) {
	return dialPool(n, func() (rpc.Conn, error) { return DialTCP(addr, timeout) })
}

// dialPool returns a pool of n connections from dial. The first is
// dialed eagerly so address and reachability errors surface
// immediately; the rest come up on first use.
func dialPool(n int, dial func() (rpc.Conn, error)) (rpc.Conn, error) {
	p := NewPool(n, dial)
	conn, err := p.dial()
	if err != nil {
		return nil, err
	}
	p.slots[0].conn = conn
	return p, nil
}

// Size returns the number of connection slots.
func (p *Pool) Size() int { return len(p.slots) }

// Call implements rpc.Conn.
func (p *Pool) Call(op rpc.Op, payload, bulk []byte, dir rpc.BulkDir) ([]byte, error) {
	return p.CallVector(op, payload, rpc.Region(bulk), dir, rpc.Trace{})
}

// CallVector implements rpc.Vectored, forwarding the call to the slot
// selected by the next request id (a slot's connection without the
// extension stages the windows).
func (p *Pool) CallVector(op rpc.Op, payload []byte, bulk [][]byte, dir rpc.BulkDir, tr rpc.Trace) ([]byte, error) {
	var resp []byte
	err := p.forward(func(conn rpc.Conn) (err error) {
		resp, err = rpc.Call(conn, op, payload, bulk, dir, tr)
		return err
	})
	return resp, err
}

// forward runs one call, try, on the slot selected by the next request
// id, dropping the slot's connection on a transport failure. A
// connection that was already dead when the call reached it — its peer
// went away while it sat idle in the slot — refused the call before
// sending any of it (unsentError), so the call runs once more on a fresh
// dial instead of failing a caller whose request was never on the wire.
// A call that may have been sent is never repeated.
func (p *Pool) forward(try func(conn rpc.Conn) error) error {
	if p.closed.Load() {
		return ErrPoolClosed
	}
	s := &p.slots[(p.next.Add(1)-1)%uint64(len(p.slots))]
	for retried := false; ; retried = true {
		var t0 time.Time
		if p.acquireHist != nil {
			t0 = time.Now()
		}
		conn, err := p.acquire(s)
		if p.acquireHist != nil {
			p.acquireHist.ObserveSince(t0)
		}
		if err != nil {
			return err
		}
		err = try(conn)
		if err == nil || !connBroken(err) {
			return err
		}
		p.invalidate(s, conn)
		var unsent *unsentError
		if retried || !errors.As(err, &unsent) {
			return err
		}
	}
}

// acquire returns the slot's connection, dialing one if the slot is empty
// (first use, or the previous connection was dropped).
func (p *Pool) acquire(s *poolSlot) (rpc.Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn != nil {
		return s.conn, nil
	}
	if p.closed.Load() {
		return nil, ErrPoolClosed
	}
	conn, err := p.dial()
	if err != nil {
		return nil, fmt.Errorf("transport: pool dial: %w", err)
	}
	if p.connHook != nil {
		p.connHook(conn)
	}
	s.conn = conn
	return conn, nil
}

// connBroken reports whether err means the connection itself is
// unusable. Remote handler errors and call timeouts leave the socket
// healthy.
func connBroken(err error) bool {
	var re *rpc.RemoteError
	return !errors.As(err, &re) && !errors.Is(err, ErrTimeout)
}

// invalidate empties the slot if it still holds conn, so the next call
// landing there re-dials.
func (p *Pool) invalidate(s *poolSlot, conn rpc.Conn) {
	s.mu.Lock()
	if s.conn == conn {
		s.conn = nil
	}
	s.mu.Unlock()
	conn.Close()
}

// Close implements rpc.Conn, closing every dialed connection. Subsequent
// calls fail with ErrPoolClosed.
func (p *Pool) Close() error {
	p.closed.Store(true)
	var errs []error
	for i := range p.slots {
		s := &p.slots[i]
		s.mu.Lock()
		if s.conn != nil {
			if err := s.conn.Close(); err != nil {
				errs = append(errs, err)
			}
			s.conn = nil
		}
		s.mu.Unlock()
	}
	return errors.Join(errs...)
}
