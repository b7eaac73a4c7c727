package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc"
)

// Ops of the one test server, newTestServer. The point ops run on the
// connection's reader (rpc.Server.RegisterPoint), every other op on a
// goroutine of its own.
const (
	opEcho       rpc.Op = iota + 1 // replies "echo:" and its payload
	opFail                         // fails with "handler exploded"
	opWrite                        // BulkIn: replies "<len>:<byte sum>" of its region
	opRead                         // BulkOut: fills the whole region with 0x5A, replies "ok"
	opSlow                         // sleeps 200 ms, replies "late"
	opSeedFill                     // BulkOut: fills byte i of its region with req[0]+i, replies "ok"
	opBulkEcho                     // BulkIn: replies with its region byte for byte, what the daemon saw of a write
	opCount                        // counts its calls in testServer.counted
	opShortFill                    // BulkOut: fills the whole region with 0x5A, commits the first u32(req) bytes
	opLateFill                     // BulkOut: sleeps past the call timeout, then fills the whole region with 0xA5
	opBenchSink                    // BulkIn: takes the wire region in place
	opBenchFill                    // BulkOut: commits the whole window
	opPointEcho                    // point op: echoes its payload
	opPointSleep                   // point op: sleeps payload[0] ms, then echoes
	opPointEmpty                   // point op: as stack-deep as a metadata transaction, empty reply
	opSpawnEmpty                   // the same handler, registered as an ordinary op
	opHoldBulk                     // BulkIn, ordinary: blocks until the test releases it
	opHoldPlain                    // bulk-less, ordinary (shaped like chunk removal): blocks until released
	opPointSink                    // BulkIn point op (shaped like a chunk write): naps, then takes the region in place
	opPointFill                    // BulkOut point op (shaped like a chunk read): naps, then fills and commits the region
	opPointLend                    // BulkOut point op (shaped like a mapped chunk read): lends pointLent as its reply
	opGather                       // lends gatherReply(u32(req)) and counts its release
	opGatherPart                   // reads half its reply into the Writable region, lends the rest
	opGatherFail                   // lends a reply, then fails
	opGatherBig                    // lends a reply as large as the region, whatever the frame allows
	opGatherHold                   // ordinary op: waits for gatherHold, then lends a reply
)

// testServer is the one server of the transport tests: it registers
// every op they call. The hold handlers report entering on entered and
// return once release is closed; released counts the releases of lent
// replies, counted the calls of opCount.
type testServer struct {
	*rpc.Server
	entered    chan struct{}
	release    chan struct{}
	gatherHold chan struct{}
	released   atomic.Int64
	counted    atomic.Int32
}

func newTestServer() *testServer {
	s := &testServer{
		Server:     rpc.NewServer(16),
		entered:    make(chan struct{}, 8),
		release:    make(chan struct{}),
		gatherHold: make(chan struct{}),
	}
	s.Register(opEcho, func(req []byte, _ rpc.Bulk) ([]byte, error) {
		return append([]byte("echo:"), req...), nil
	})
	s.Register(opFail, func([]byte, rpc.Bulk) ([]byte, error) {
		return nil, errors.New("handler exploded")
	})
	s.Register(opWrite, func(req []byte, bulk rpc.Bulk) ([]byte, error) {
		buf, err := bulk.Bytes()
		if err != nil {
			return nil, err
		}
		var sum uint64
		for _, b := range buf {
			sum += uint64(b)
		}
		return []byte(fmt.Sprintf("%d:%d", len(buf), sum)), nil
	})
	fill := func(b byte, reply string) rpc.Handler {
		return func(_ []byte, bulk rpc.Bulk) ([]byte, error) {
			out, err := bulk.Writable(bulk.Len())
			if err != nil {
				return nil, err
			}
			for i := range out {
				out[i] = b
			}
			return []byte(reply), bulk.Commit(len(out))
		}
	}
	s.Register(opRead, fill(0x5A, "ok"))
	s.Register(opSlow, func([]byte, rpc.Bulk) ([]byte, error) {
		time.Sleep(200 * time.Millisecond)
		return []byte("late"), nil
	})
	s.Register(opSeedFill, func(req []byte, bulk rpc.Bulk) ([]byte, error) {
		out, err := bulk.Writable(bulk.Len())
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] = req[0] + byte(i)
		}
		return []byte("ok"), bulk.Commit(len(out))
	})
	s.Register(opBulkEcho, func(_ []byte, bulk rpc.Bulk) ([]byte, error) {
		b, err := bulk.Bytes()
		if err != nil {
			return nil, err
		}
		return append([]byte(nil), b...), nil
	})
	s.Register(opCount, func([]byte, rpc.Bulk) ([]byte, error) {
		s.counted.Add(1)
		return nil, nil
	})
	s.Register(opShortFill, func(req []byte, bulk rpc.Bulk) ([]byte, error) {
		w, err := bulk.Writable(bulk.Len())
		if err != nil {
			return nil, err
		}
		for i := range w {
			w[i] = 0x5A
		}
		return nil, bulk.Commit(int(binary.LittleEndian.Uint32(req)))
	})
	lateFill := fill(0xA5, "")
	s.Register(opLateFill, func(req []byte, bulk rpc.Bulk) ([]byte, error) {
		time.Sleep(200 * time.Millisecond)
		return lateFill(req, bulk)
	})
	s.Register(opBenchSink, func(_ []byte, bulk rpc.Bulk) ([]byte, error) {
		_, err := bulk.Bytes()
		return nil, err
	})
	s.Register(opBenchFill, func(_ []byte, bulk rpc.Bulk) ([]byte, error) {
		if _, err := bulk.Writable(bulk.Len()); err != nil {
			return nil, err
		}
		return nil, bulk.Commit(bulk.Len())
	})
	s.registerDispatchOps()
	s.registerGatherOps()
	return s
}

// matrix is a test server listening on every carrier the platform has:
// loopback TCP and, on unix, a doorbell.
type matrix struct {
	srv *rpc.Server
	tcp string // the TCP listener's address
	shm string // the doorbell's socket path; "" without one
}

// newMatrix serves srv on every carrier; seg sizes the doorbell's
// segments (0: the default).
func newMatrix(tb testing.TB, srv *rpc.Server, seg int) matrix {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.Close() })
	go ServeTCP(l, srv)
	return matrix{srv: srv, tcp: l.Addr().String(), shm: startShmServer(tb, srv, seg)}
}

// dial connects to m over carrier; a pool stripes width connections.
func (m matrix) dial(carrier string, width int, timeout time.Duration) (rpc.Conn, error) {
	switch carrier {
	case "mem":
		fabric := NewMemNetwork()
		fabric.Register(0, m.srv)
		return fabric.Dial(0)
	case "tcp":
		return DialTCP(m.tcp, timeout)
	case "tcp-pool":
		return DialTCPPool(m.tcp, timeout, width)
	case "shm":
		return DialShm(m.shm, timeout)
	case "shm-pool":
		return DialShmPool(m.shm, timeout, width)
	}
	return nil, fmt.Errorf("no carrier %q", carrier)
}

// mustDial is dial at a minute's timeout that fails tb on error and
// closes the connection when tb ends.
func (m matrix) mustDial(tb testing.TB, carrier string, width int) rpc.Conn {
	tb.Helper()
	c, err := m.dial(carrier, width, time.Minute)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

// conns is the carrier matrix: srv served on every carrier, one
// connection over each (the pools two wide), by carrier name.
func conns(t *testing.T, srv *rpc.Server) map[string]rpc.Conn {
	t.Helper()
	m := newMatrix(t, srv, 0)
	names := []string{"mem", "tcp", "tcp-pool"}
	if m.shm != "" {
		names = append(names, "shm", "shm-pool")
	}
	byName := make(map[string]rpc.Conn)
	for _, name := range names {
		byName[name] = m.mustDial(t, name, 2)
	}
	return byName
}

func TestEcho(t *testing.T) {
	for name, c := range conns(t, newTestServer().Server) {
		t.Run(name, func(t *testing.T) {
			resp, err := c.Call(opEcho, []byte("hello"), nil, rpc.BulkNone)
			if err != nil || string(resp) != "echo:hello" {
				t.Fatalf("Call = %q, %v", resp, err)
			}
		})
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	for name, c := range conns(t, newTestServer().Server) {
		t.Run(name, func(t *testing.T) {
			_, err := c.Call(opFail, nil, nil, rpc.BulkNone)
			var re *rpc.RemoteError
			if !errors.As(err, &re) {
				t.Fatalf("err = %v (%T), want RemoteError", err, err)
			}
			if !strings.Contains(re.Msg, "handler exploded") {
				t.Fatalf("msg = %q", re.Msg)
			}
		})
	}
}

func TestBulkWritePath(t *testing.T) {
	for name, c := range conns(t, newTestServer().Server) {
		t.Run(name, func(t *testing.T) {
			data := bytes.Repeat([]byte{3}, 100000)
			resp, err := c.Call(opWrite, nil, data, rpc.BulkIn)
			if err != nil {
				t.Fatal(err)
			}
			if string(resp) != "100000:300000" {
				t.Fatalf("server saw %q", resp)
			}
		})
	}
}

func TestBulkReadPath(t *testing.T) {
	for name, c := range conns(t, newTestServer().Server) {
		t.Run(name, func(t *testing.T) {
			buf := make([]byte, 64*1024)
			resp, err := c.Call(opRead, nil, buf, rpc.BulkOut)
			if err != nil || string(resp) != "ok" {
				t.Fatalf("Call = %q, %v", resp, err)
			}
			for i, b := range buf {
				if b != 0x5A {
					t.Fatalf("byte %d = %#x, want 0x5A", i, b)
				}
			}
		})
	}
}

func TestLargeTransfer(t *testing.T) {
	for name, c := range conns(t, newTestServer().Server) {
		t.Run(name, func(t *testing.T) {
			data := make([]byte, 4<<20)
			for i := range data {
				data[i] = byte(i * 7)
			}
			var sum uint64
			for _, b := range data {
				sum += uint64(b)
			}
			resp, err := c.Call(opWrite, nil, data, rpc.BulkIn)
			if err != nil || string(resp) != fmt.Sprintf("%d:%d", len(data), sum) {
				t.Fatalf("Call = %q, %v", resp, err)
			}
		})
	}
}

func TestConcurrentCalls(t *testing.T) {
	for name, c := range conns(t, newTestServer().Server) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for i := 0; i < 32; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					msg := []byte(fmt.Sprintf("m%d", i))
					resp, err := c.Call(opEcho, msg, nil, rpc.BulkNone)
					if err != nil || string(resp) != "echo:"+string(msg) {
						t.Errorf("call %d = %q, %v", i, resp, err)
					}
				}(i)
			}
			wg.Wait()
		})
	}
}

func TestTCPTimeout(t *testing.T) {
	c, err := newMatrix(t, newTestServer().Server, 0).dial("tcp", 1, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(opSlow, nil, nil, rpc.BulkNone); err == nil {
		t.Fatal("slow call did not time out")
	}
	// The connection stays usable for later calls.
	time.Sleep(250 * time.Millisecond) // let the late response drain
	resp, err := c.Call(opEcho, []byte("x"), nil, rpc.BulkNone)
	if err != nil || string(resp) != "echo:x" {
		t.Fatalf("post-timeout call = %q, %v", resp, err)
	}
}

func TestTCPConnectionFailure(t *testing.T) {
	srv := newTestServer().Server
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ServeTCP(l, srv)
	c, err := DialTCP(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the transport under the client.
	l.Close()
	if _, err := c.Call(opEcho, []byte("a"), nil, rpc.BulkNone); err == nil {
		// The first call may still win the race with the close; the next
		// must fail.
		if _, err2 := c.Call(opEcho, []byte("b"), nil, rpc.BulkNone); err2 == nil {
			t.Skip("listener close did not break established conn on this platform")
		}
	}
}

func TestMemDialUnknownNode(t *testing.T) {
	n := NewMemNetwork()
	if _, err := n.Dial(42); err == nil {
		t.Fatal("dial to unregistered node succeeded")
	}
}

func TestUnknownOpOverTransports(t *testing.T) {
	for name, c := range conns(t, newTestServer().Server) {
		t.Run(name, func(t *testing.T) {
			_, err := c.Call(rpc.Op(999), nil, nil, rpc.BulkNone)
			var re *rpc.RemoteError
			if !errors.As(err, &re) || !strings.Contains(re.Msg, "unknown operation") {
				t.Fatalf("err = %v", err)
			}
		})
	}
}
