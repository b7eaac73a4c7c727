package wiretest

import (
	"net"
	"sync"
	"testing"

	"repro/internal/rpc"
	"repro/internal/transport"
)

// Listener remembers every connection it accepted so a test can sever
// them: the client-visible signature of kill -9 is the socket dying
// mid-conversation, not a polite daemon shutdown.
type Listener struct {
	net.Listener
	mu     sync.Mutex
	conns  []net.Conn
	killed bool
}

// Accept implements net.Listener. A connection the inner listener hands
// over after Kill is closed at once, and Accept reports the listener
// closed.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.killed {
		c.Close()
		return nil, net.ErrClosed
	}
	l.conns = append(l.conns, c)
	return c, nil
}

// Kill closes the listener and every connection it accepted, before or
// after.
func (l *Listener) Kill() {
	l.mu.Lock()
	l.killed = true
	conns := l.conns
	l.conns = nil
	l.mu.Unlock()
	l.Listener.Close()
	for _, c := range conns {
		c.Close()
	}
}

// ServeTCP serves srv on a fresh loopback Listener, killed when tb ends.
func ServeTCP(tb testing.TB, srv *rpc.Server) *Listener {
	tb.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	l := &Listener{Listener: inner}
	tb.Cleanup(l.Kill)
	go transport.ServeTCP(l, srv)
	return l
}
