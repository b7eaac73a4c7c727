package wiretest

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc"
)

const opEcho rpc.Op = 1 // BulkIn: replies with the region its handler saw

func echoServer() *rpc.Server {
	srv := rpc.NewServer(4)
	srv.Register(opEcho, func(_ []byte, bulk rpc.Bulk) ([]byte, error) {
		b, err := bulk.Bytes()
		return append([]byte(nil), b...), err
	})
	return srv
}

// TestConnForwardsStart pins the interposer's contract on every carrier:
// a two-window BulkIn call through a Conn draws from the pool exactly
// what the same call on the bare connection draws — no staging region —
// and the handler sees the windows' bytes, concatenated. The control arm
// shows the count would see a lost CallVector: through a Call-only
// wrapper the call draws one region more on every carrier that takes a
// window list on the wire, all but mem, which stages every window list
// itself.
func TestConnForwardsStart(t *testing.T) {
	wins := [][]byte{bytes.Repeat([]byte{1}, 96<<10), bytes.Repeat([]byte{2}, 32<<10)}
	want := bytes.Join(wins, nil)
	for name, bare := range Conns(t, echoServer()) {
		t.Run(name, func(t *testing.T) {
			script := new(Script)
			conns := []rpc.Conn{bare}
			script.Wrap(conns)
			draws := func(c rpc.Conn) int64 {
				t.Helper()
				var n atomic.Int64
				stop := rpc.ObserveDraws(func(size int) {
					if size == len(want) {
						n.Add(1)
					}
				})
				got, err := rpc.Call(c, opEcho, nil, wins, rpc.BulkIn, rpc.Trace{})
				stop()
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("the handler saw %d bytes (%v), not the windows' %d", len(got), err, len(want))
				}
				return n.Load()
			}
			base := draws(bare)
			if got := draws(conns[0]); got != base {
				t.Fatalf("through the interposer the call drew %d regions of its size, on the bare connection %d", got, base)
			}
			// struct{ rpc.Conn } hides CallVector, as a Call-only wrapper does.
			if got := draws(struct{ rpc.Conn }{bare}); name != Mem && got != base+1 {
				t.Fatalf("through a Call-only wrapper the call drew %d regions of its size, want %d", got, base+1)
			}
			if calls := script.Take(); len(calls) != 1 || calls[0].Len() != len(want) || len(calls[0].Windows) != 2 {
				t.Fatal("the script did not log the call as one call of two windows")
			}
		})
	}
}

// lateListener is an inner listener whose one Accept hands over a
// connection only once accept is closed, and ignores Close: a pool's
// re-dial the kernel accepted while Kill ran.
type lateListener struct {
	net.Listener
	accept chan struct{}
	conn   net.Conn
}

func (l *lateListener) Accept() (net.Conn, error) {
	<-l.accept
	return l.conn, nil
}

func (l *lateListener) Close() error { return nil }

// TestKilledListenerClosesLateAccept pins Kill against a connection the
// inner listener accepted while Kill ran but handed over after it
// returned: that connection is closed too, so a killed daemon cannot go
// on serving it. A listener that swept only the connections it had
// recorded left it open.
func TestKilledListenerClosesLateAccept(t *testing.T) {
	ours, peer := net.Pipe()
	defer peer.Close()
	inner := &lateListener{accept: make(chan struct{}), conn: ours}
	l := &Listener{Listener: inner}
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		if c, err := l.Accept(); err == nil {
			go io.Copy(io.Discard, c) // what a serve loop does with it
		}
	}()
	l.Kill()
	close(inner.accept)
	<-accepted
	peer.SetWriteDeadline(time.Now().Add(time.Second))
	if _, err := peer.Write([]byte{1}); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("a connection accepted after Kill is still open: a write to it = %v", err)
	}
}

// TestScriptStops drives one of each stop on the mem carrier: a gate
// holds the n-th matching call before the handler runs, a hold returns
// the n-th matching call only on Release with the call already applied,
// and a severed script fails calls unsent.
func TestScriptStops(t *testing.T) {
	var applied atomic.Int64
	srv := rpc.NewServer(4)
	srv.Register(opEcho, func([]byte, rpc.Bulk) ([]byte, error) {
		applied.Add(1)
		return nil, nil
	})
	script := new(Script)
	conns := []rpc.Conn{Dial(t, srv, Mem, 1)}
	script.Wrap(conns)
	call := func() error {
		_, err := conns[0].Call(opEcho, nil, nil, rpc.BulkNone)
		return err
	}
	for _, gate := range []bool{true, false} {
		var h *Hold
		if gate {
			h = script.Gate(2, On(0, opEcho))
		} else {
			h = script.Hold(2, On(0, opEcho))
		}
		before := applied.Load()
		if err := call(); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- call() }()
		<-h.Caught()
		if got, want := applied.Load()-before, map[bool]int64{true: 1, false: 2}[gate]; got != want {
			t.Fatalf("gate=%v: %d calls applied when the second was caught, want %d", gate, got, want)
		}
		select {
		case err := <-done:
			t.Fatalf("gate=%v: the stopped call returned (%v) before Release", gate, err)
		case <-time.After(10 * time.Millisecond):
		}
		h.Release()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	script.Sever()
	before := applied.Load()
	if err := call(); !errors.Is(err, ErrSevered) || applied.Load() != before {
		t.Fatalf("a severed call = %v with the handler run %d times, want ErrSevered unsent", err, applied.Load()-before)
	}
}
