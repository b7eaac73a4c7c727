// Package wiretest is the one wire harness of the tests: an interposer
// that sits on a client's daemon connections and follows a script (log,
// hold, gate, sever), the one listener that severs a daemon's accepted
// connections, and the carrier matrix that serves an rpc.Server over
// every transport the platform has.
//
// The contract: Conn implements rpc.Vectored by forwarding CallVector,
// so the code under test runs the vectored call production runs — never
// rpc's staging fallback, which only a Conn without the extension gets.
// A hold stops a call once it has returned, after the daemon has applied
// it; a gate stops a call before it is sent. Only tests import this
// package: no non-test package may (CI's lint step fails on one).
package wiretest

import (
	"errors"
	"sync"

	"repro/internal/rpc"
)

// ErrSevered is what a call through a severed Script fails with: the
// transport-level failure of a killed daemon's socket, reported before
// anything was sent.
var ErrSevered = errors.New("transport: connection severed")

// Call is one call a Conn saw, as its caller made it.
type Call struct {
	Node int
	Op   rpc.Op
	Dir  rpc.BulkDir
	// Windows is the call's window list; the windows are the caller's
	// memory, not copies.
	Windows [][]byte
}

// Len is the number of bytes the call's windows hold.
func (c Call) Len() int {
	n := 0
	for _, w := range c.Windows {
		n += len(w)
	}
	return n
}

// On matches the calls of op to node.
func On(node int, op rpc.Op) func(Call) bool {
	return func(c Call) bool { return c.Node == node && c.Op == op }
}

// Script is what the Conns it wraps do to their calls; one Script may
// drive the connections of a whole deployment. Its zero value logs every
// call and forwards it.
type Script struct {
	mu      sync.Mutex
	calls   []Call
	stops   []*Hold
	severed bool
}

// Wrap replaces each of conns with a Conn driven by s whose node is its
// index.
func (s *Script) Wrap(conns []rpc.Conn) {
	for i, c := range conns {
		conns[i] = &Conn{Conn: c, node: i, s: s}
	}
}

// Take returns the calls made since the last Take, in the order they began.
func (s *Script) Take() []Call {
	s.mu.Lock()
	defer s.mu.Unlock()
	calls := s.calls
	s.calls = nil
	return calls
}

// Hold holds the n-th call made from now on that match accepts (nil
// accepts every call) once it has returned, until Release: the daemon
// has applied the call, only its reply lands late.
func (s *Script) Hold(n int, match func(Call) bool) *Hold { return s.stop(n, match, false) }

// Gate stops the n-th call made from now on that match accepts (nil
// accepts every call) before it is sent, until Release.
func (s *Script) Gate(n int, match func(Call) bool) *Hold { return s.stop(n, match, true) }

func (s *Script) stop(n int, match func(Call) bool, gate bool) *Hold {
	if match == nil {
		match = func(Call) bool { return true }
	}
	h := &Hold{match: match, n: n, gate: gate, caught: make(chan struct{}), release: make(chan struct{})}
	s.mu.Lock()
	s.stops = append(s.stops, h)
	s.mu.Unlock()
	return h
}

// Sever fails every call made from now on with ErrSevered, unsent.
func (s *Script) Sever() {
	s.mu.Lock()
	s.severed = true
	s.mu.Unlock()
}

// begin logs c and returns what happens to it: severed, or stopped by a
// gate before it is sent and by a hold after it was applied.
func (s *Script) begin(c Call) (gate, hold *Hold, severed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls = append(s.calls, c)
	if s.severed {
		return nil, nil, true
	}
	live := s.stops[:0]
	for _, h := range s.stops {
		if h.released() {
			continue
		}
		if h.match(c) {
			if h.n--; h.n == 0 {
				if h.gate {
					gate = h
				} else {
					hold = h
				}
				continue
			}
		}
		live = append(live, h)
	}
	s.stops = live
	return gate, hold, false
}

// Hold is one scripted stop of one call.
type Hold struct {
	match   func(Call) bool
	n       int // matching calls until the one stopped, counted under the Script's mutex
	gate    bool
	caught  chan struct{}
	release chan struct{}
	once    sync.Once
}

// Caught is closed when the call is stopped.
func (h *Hold) Caught() <-chan struct{} { return h.caught }

// Release lets the stopped call go on. Before the call is caught it
// disarms the stop. It may be called more than once: deferred too, so a
// failing test leaves no call blocked.
func (h *Hold) Release() { h.once.Do(func() { close(h.release) }) }

func (h *Hold) released() bool {
	select {
	case <-h.release:
		return true
	default:
		return false
	}
}

// wait stops the caught call until Release.
func (h *Hold) wait() {
	close(h.caught)
	<-h.release
}

// Conn is one daemon connection driven by a Script (Script.Wrap).
type Conn struct {
	rpc.Conn
	node int
	s    *Script
}

// CallVector implements rpc.Vectored: it forwards the call to the
// wrapped connection through rpc.Call, after the script's gate and sever,
// and the script's hold stops it once it has returned.
func (c *Conn) CallVector(op rpc.Op, payload []byte, bulk [][]byte, dir rpc.BulkDir, tr rpc.Trace) ([]byte, error) {
	gate, hold, severed := c.s.begin(Call{Node: c.node, Op: op, Dir: dir, Windows: append([][]byte(nil), bulk...)})
	if severed {
		return nil, ErrSevered
	}
	if gate != nil {
		gate.wait()
	}
	resp, err := rpc.Call(c.Conn, op, payload, bulk, dir, tr)
	if hold != nil {
		hold.wait()
	}
	return resp, err
}

// Call implements rpc.Conn through CallVector.
func (c *Conn) Call(op rpc.Op, payload, bulk []byte, dir rpc.BulkDir) ([]byte, error) {
	return c.CallVector(op, payload, rpc.Region(bulk), dir, rpc.Trace{})
}
