package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/rpc"
)

// The dispatch rule of the serve loop: a bulk-less frame for a point op
// runs on the connection's reader, every other frame on a goroutine of
// its own. These tests pin both halves, and the cost pins below measure
// what the inline half saves on an empty round trip.

// Ops of the dispatch tests, registered by newDispatchServer.
const (
	opPointEcho  rpc.Op = 300 + iota // point op: echoes its payload
	opPointSleep                     // point op: sleeps payload[0] ms, then echoes
	opPointEmpty                     // point op: as stack-deep as a metadata transaction, empty reply
	opSpawnEmpty                     // the same handler, registered as an ordinary op
	opHoldBulk                       // BulkIn, ordinary: blocks until the test releases it
	opHoldPlain                      // bulk-less, ordinary (shaped like chunk removal): blocks until released
)

// dispatchServer is an rpc.Server whose hold handlers report entering
// on entered and return once release is closed.
type dispatchServer struct {
	*rpc.Server
	entered chan struct{}
	release chan struct{}
}

func newDispatchServer() *dispatchServer {
	s := &dispatchServer{
		Server:  rpc.NewServer(8),
		entered: make(chan struct{}, 8),
		release: make(chan struct{}),
	}
	echo := func(req []byte, _ rpc.Bulk) ([]byte, error) { return append([]byte(nil), req...), nil }
	s.RegisterPoint(opPointEcho, echo)
	s.RegisterPoint(opPointSleep, func(req []byte, bulk rpc.Bulk) ([]byte, error) {
		time.Sleep(time.Duration(req[0]) * time.Millisecond)
		return echo(req, bulk)
	})
	deep := func([]byte, rpc.Bulk) ([]byte, error) {
		if txnDepth(txnFrames) < 0 {
			return nil, errors.New("unreachable")
		}
		return nil, nil
	}
	s.RegisterPoint(opPointEmpty, deep)
	s.Register(opSpawnEmpty, deep)
	hold := func([]byte, rpc.Bulk) ([]byte, error) {
		s.entered <- struct{}{}
		<-s.release
		return []byte("held"), nil
	}
	s.Register(opHoldBulk, hold)
	s.Register(opHoldPlain, hold)
	return s
}

// txnFrames × 1 KiB is about the stack a metadata transaction touches
// on its way to the WAL append: enough that a handler started on a
// fresh goroutine grows its stack on every call, as the daemon's did.
const txnFrames = 6

// txnDepth recurses n frames deep, each holding 1 KiB of stack.
//
//go:noinline
func txnDepth(n int) int {
	var frame [1 << 10]byte
	frame[n] = byte(n)
	if n == 0 {
		return int(frame[0])
	}
	return txnDepth(n-1) + int(frame[n])
}

// TestDispatchPointOpPassesBlockedHandler blocks an ordinary handler —
// one with a bulk region, and a bulk-less one like chunk removal — and
// then sends a point op on the same connection: only point ops run on
// the reader, so the blocked handler must not stall it.
func TestDispatchPointOpPassesBlockedHandler(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   rpc.Op
		bulk []byte
		dir  rpc.BulkDir
	}{
		{"bulk", opHoldBulk, make([]byte, 4096), rpc.BulkIn},
		{"bulk-less", opHoldPlain, nil, rpc.BulkNone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newDispatchServer()
			c := dialServedTCP(t, srv.Server, 1)
			held := make(chan error, 1)
			go func() {
				_, err := c.Call(tc.op, nil, tc.bulk, tc.dir)
				held <- err
			}()
			<-srv.entered
			done := make(chan struct{})
			var resp []byte
			var err error
			go func() {
				defer close(done)
				resp, err = c.Call(opPointEcho, []byte("point"), nil, rpc.BulkNone)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Error("a point op waited behind a blocked ordinary handler")
			}
			close(srv.release)
			<-done
			if err != nil || string(resp) != "point" {
				t.Fatalf("point op = %q, %v", resp, err)
			}
			if err := <-held; err != nil {
				t.Fatalf("held call: %v", err)
			}
		})
	}
}

// rawFrame frames a bulk-less, untraced request.
func rawFrame(id uint64, op rpc.Op, payload []byte) []byte {
	f := binary.LittleEndian.AppendUint32(nil, uint32(minRequestLen+len(payload)+4))
	f = binary.LittleEndian.AppendUint64(f, id)
	f = binary.LittleEndian.AppendUint16(f, uint16(op))
	f = append(f, byte(rpc.BulkNone))
	f = binary.LittleEndian.AppendUint32(f, uint32(len(payload)))
	f = append(f, payload...)
	return binary.LittleEndian.AppendUint32(f, 0) // bulkLen
}

// TestDispatchPointOpsInArrivalOrder sends point ops in one write, the
// first sleeping longest: run on the reader they are answered in the
// order they arrived, where handlers on goroutines of their own would
// answer the last one first.
func TestDispatchPointOpsInArrivalOrder(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ServeTCP(l, newDispatchServer().Server)
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 5
	var frames []byte
	for id := uint64(1); id <= n; id++ {
		frames = append(frames, rawFrame(id, opPointSleep, []byte{byte(2 * (n - id))})...)
	}
	if _, err := c.Write(frames); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for want := uint64(1); want <= n; want++ {
		id, err := readRawFrameID(c)
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Fatalf("response %d answers request %d: point ops were not answered in arrival order", want, id)
		}
	}
}

// TestDispatchServeWaitsForSpawnedHandlers pins what lets the doorbell
// unmap its segment when serve returns: with a point op served inline
// and an ordinary handler still running, the client's death ends the
// stream, yet serve returns only once that handler has finished.
func TestDispatchServeWaitsForSpawnedHandlers(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := newDispatchServer()
	returned := make(chan struct{})
	go func() {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		serve(nc, srv.Server, nil)
		close(returned)
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	frames := append(rawFrame(1, opPointEcho, []byte("inline")), rawFrame(2, opHoldPlain, nil)...)
	if _, err := c.Write(frames); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if id, err := readRawFrameID(c); err != nil || id != 1 {
		t.Fatalf("inline point op: response id %d, %v", id, err)
	}
	<-srv.entered
	c.Close()
	select {
	case <-returned:
		close(srv.release)
		t.Fatal("serve returned while a handler it spawned was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(srv.release)
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after its last handler finished")
	}
}

// emptyRPCAllocPin bounds the allocations of one empty round trip over
// the client's path — the pool, one TCP conn, serve, a point op — both
// ends counted. It was 13 while every request got a goroutine and a
// closure, every pending call a fresh struct and channel, every
// rpc.PutBuf a boxed slice header and every frame header array a trip
// through io.ReadFull to the heap.
const emptyRPCAllocPin = 0

// TestEmptyRPCAllocs pins emptyRPCAllocPin.
func TestEmptyRPCAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of its Puts")
	}
	c := dialServedTCP(t, newDispatchServer().Server, 1)
	call := func() {
		if _, err := rpc.CallTrace(c, opPointEmpty, nil, nil, rpc.BulkNone, rpc.Trace{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		call() // fill the pools
	}
	allocs := testing.AllocsPerRun(2000, call)
	if allocs > emptyRPCAllocPin {
		t.Fatalf("an empty RPC makes %v allocations, pin %d", allocs, emptyRPCAllocPin)
	}
	t.Logf("%v allocations per empty RPC", allocs)
}

// BenchmarkEmptyRPC is the per-call cost of the transport: an empty
// request and reply over the client's path (a one-connection pool on
// loopback TCP), from one caller and from GOMAXPROCS callers. The
// handler is as stack-deep as a metadata transaction; "inline" runs it
// as a point op on the connection's reader, "spawned" registers the
// same handler as an ordinary op, so the difference is what a fresh
// goroutine per request costs.
func BenchmarkEmptyRPC(b *testing.B) {
	srv := newDispatchServer().Server
	for _, d := range []struct {
		name string
		op   rpc.Op
	}{{"inline", opPointEmpty}, {"spawned", opSpawnEmpty}} {
		c := dialServedTCP(b, srv, 1)
		b.Run(d.name+"/serial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rpc.CallTrace(c, d.op, nil, nil, rpc.BulkNone, rpc.Trace{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(d.name+"/parallel", func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := rpc.CallTrace(c, d.op, nil, nil, rpc.BulkNone, rpc.Trace{}); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
