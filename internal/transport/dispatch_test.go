package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/rpc"
)

// The dispatch rule of the serve loop: a frame for a point op — bulk or
// not — runs on the connection's reader, every other frame on a
// goroutine of its own. These tests pin both halves, and the cost pins
// below measure what the inline half saves on a round trip.

// pointLent is opPointLend's reply, two 4 KiB windows lent from memory
// the handler keeps, and pointReleased the release it hands over with
// them: nothing of the lend is made per call.
var (
	pointLent     = [][]byte{make([]byte, 4<<10), make([]byte, 4<<10)}
	pointReleased = func() {}
)

// nap sleeps req[0] milliseconds when the request carries a payload.
func nap(req []byte) {
	if len(req) > 0 {
		time.Sleep(time.Duration(req[0]) * time.Millisecond)
	}
}

// registerDispatchOps registers the ops of the dispatch tests.
func (s *testServer) registerDispatchOps() {
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
	s.RegisterPoint(opPointSink, func(req []byte, bulk rpc.Bulk) ([]byte, error) {
		nap(req)
		_, err := bulk.Bytes()
		return nil, err
	})
	s.RegisterPoint(opPointFill, func(req []byte, bulk rpc.Bulk) ([]byte, error) {
		nap(req)
		b, err := bulk.Writable(bulk.Len())
		if err != nil {
			return nil, err
		}
		for i := range b {
			b[i] = byte(i)
		}
		return nil, bulk.Commit(len(b))
	})
	s.RegisterPoint(opPointLend, func(_ []byte, bulk rpc.Bulk) ([]byte, error) {
		return nil, rpc.Gather(bulk, pointLent, pointReleased)
	})
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

// blockers are the ordinary handlers a point op must get past: one with
// a bulk region, and a bulk-less one like chunk removal.
var blockers = []struct {
	name string
	op   rpc.Op
	bulk []byte
	dir  rpc.BulkDir
}{
	{"bulk", opHoldBulk, make([]byte, 4096), rpc.BulkIn},
	{"bulk-less", opHoldPlain, nil, rpc.BulkNone},
}

// passesBlocked blocks each ordinary handler of blockers on a fresh
// connection, in a subtest named after it, and then runs point on the
// same connection: only point ops run on the reader, so the blocked
// handler must not stall it.
func passesBlocked(t *testing.T, point func(c rpc.Conn) error) {
	for _, b := range blockers {
		t.Run(b.name, func(t *testing.T) {
			srv := newTestServer()
			c := newMatrix(t, srv.Server, 0).mustDial(t, "tcp-pool", 1)
			held := make(chan error, 1)
			go func() {
				_, err := c.Call(b.op, nil, b.bulk, b.dir)
				held <- err
			}()
			<-srv.entered
			done := make(chan error, 1)
			go func() { done <- point(c) }()
			select {
			case err := <-done:
				close(srv.release)
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				close(srv.release)
				t.Fatalf("a point op waited behind a blocked ordinary handler (then: %v)", <-done)
			}
			if err := <-held; err != nil {
				t.Fatalf("held call: %v", err)
			}
		})
	}
}

// TestDispatchPointOpPassesBlockedHandler runs passesBlocked with a
// bulk-less point op.
func TestDispatchPointOpPassesBlockedHandler(t *testing.T) {
	passesBlocked(t, func(c rpc.Conn) error {
		resp, err := c.Call(opPointEcho, []byte("point"), nil, rpc.BulkNone)
		if err == nil && string(resp) != "point" {
			err = fmt.Errorf("point op answered %q", resp)
		}
		return err
	})
}

// rawFrame frames a bulk-less, untraced request.
func rawFrame(id uint64, op rpc.Op, payload []byte) []byte {
	return rawBulkFrame(id, op, rpc.BulkNone, payload, 0)
}

// rawBulkFrame frames an untraced request exposing a bulkLen-byte
// region: a BulkIn frame carries that many zero bytes, a BulkOut frame
// only advertises the size.
func rawBulkFrame(id uint64, op rpc.Op, dir rpc.BulkDir, payload []byte, bulkLen int) []byte {
	inline := 0
	switch dir {
	case rpc.BulkNone:
		bulkLen = 0
	case rpc.BulkIn:
		inline = bulkLen
	}
	f := binary.LittleEndian.AppendUint32(nil, uint32(minRequestLen+len(payload)+4+inline))
	f = binary.LittleEndian.AppendUint64(f, id)
	f = binary.LittleEndian.AppendUint16(f, uint16(op))
	f = append(f, byte(dir))
	f = binary.LittleEndian.AppendUint32(f, uint32(len(payload)))
	f = append(f, payload...)
	f = binary.LittleEndian.AppendUint32(f, uint32(bulkLen))
	return append(f, make([]byte, inline)...)
}

// answeredInArrivalOrder sends n frames, frame(id) for ids 1..n, in one
// write to a served connection and checks the responses come back in
// request order.
func answeredInArrivalOrder(t *testing.T, n uint64, frame func(id uint64) []byte) {
	c, err := net.Dial("tcp", newMatrix(t, newTestServer().Server, 0).tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var frames []byte
	for id := uint64(1); id <= n; id++ {
		frames = append(frames, frame(id)...)
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

// TestDispatchPointOpsInArrivalOrder sends point ops in one write, the
// first sleeping longest: run on the reader they are answered in the
// order they arrived, where handlers on goroutines of their own would
// answer the last one first.
func TestDispatchPointOpsInArrivalOrder(t *testing.T) {
	const n = 5
	answeredInArrivalOrder(t, n, func(id uint64) []byte {
		return rawFrame(id, opPointSleep, []byte{byte(2 * (n - id))})
	})
}

// TestDispatchBulkPointOps pins the same rule for point ops with a bulk
// region, the shape of the daemon's chunk writes (BulkIn) and reads
// (BulkOut): sent in one write, alternating, the first napping longest,
// they are answered in arrival order; and an ordinary handler blocked on
// the same connection, with or without a bulk region, does not stall
// them.
func TestDispatchBulkPointOps(t *testing.T) {
	t.Run("arrival order", func(t *testing.T) {
		const n = 6
		answeredInArrivalOrder(t, n, func(id uint64) []byte {
			op, dir := opPointSink, rpc.BulkIn
			if id%2 == 0 {
				op, dir = opPointFill, rpc.BulkOut
			}
			return rawBulkFrame(id, op, dir, []byte{byte(2 * (n - id))}, 8<<10)
		})
	})
	passesBlocked(t, func(c rpc.Conn) error {
		if _, err := c.Call(opPointSink, nil, make([]byte, 8<<10), rpc.BulkIn); err != nil {
			return err
		}
		out := make([]byte, 8<<10)
		if _, err := c.Call(opPointFill, nil, out, rpc.BulkOut); err != nil {
			return err
		}
		for i, b := range out {
			if b != byte(i) {
				return fmt.Errorf("BulkOut point op: byte %d = %d, want %d", i, b, byte(i))
			}
		}
		return nil
	})
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
	srv := newTestServer()
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

// allocCarriers are the carriers the allocation pins run over, by the
// matrix's names: shm-pool only where the platform has the doorbell.
func allocCarriers(m matrix) []string {
	names := []string{"mem", "tcp", "tcp-pool"}
	if m.shm != "" {
		names = append(names, "shm-pool")
	}
	return names
}

// emptyRPCAllocPins bound the allocations of one empty round trip to a
// point op, both ends counted, per carrier. Over tcp-pool — the pool,
// one TCP conn, serve — it was 13 while every request got a goroutine
// and a closure, every pending call a fresh struct and channel, every
// rpc.PutBuf a boxed slice header and every frame header array a trip
// through io.ReadFull to the heap.
var emptyRPCAllocPins = map[string]float64{"mem": 0, "tcp": 0, "tcp-pool": 0, "shm-pool": 0}

// TestEmptyRPCAllocs pins emptyRPCAllocPins.
func TestEmptyRPCAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of its Puts")
	}
	m := newMatrix(t, newTestServer().Server, 0)
	for _, name := range allocCarriers(m) {
		allocs := rpcAllocs(t, m.mustDial(t, name, 1), opPointEmpty, nil, rpc.BulkNone)
		if pin := emptyRPCAllocPins[name]; allocs > pin {
			t.Errorf("an empty RPC over %s makes %v allocations, pin %v", name, allocs, pin)
		}
		t.Logf("%v allocations per empty RPC over %s", allocs, name)
	}
}

// rpcAllocs measures the allocations of one call of op over c with the
// windows of bulk as its region, both ends counted, once the pools are
// warm.
func rpcAllocs(t *testing.T, c rpc.Conn, op rpc.Op, bulk [][]byte, dir rpc.BulkDir) float64 {
	call := func() {
		if _, err := rpc.Call(c, op, nil, bulk, dir, rpc.Trace{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		call() // fill the pools
	}
	return testing.AllocsPerRun(2000, call)
}

// bulkRPCAllocPins bound the allocations of one 8 KiB round trip in
// either bulk direction, per carrier, with the handler a point op — the
// shape of the daemon's chunk writes and reads — both ends counted. Over
// tcp-pool it was 5 while chunk ops were served on a goroutine of their
// own (request struct, goroutine, closure) and each end built a
// net.Buffers per vectored write. A BulkOut reply the handler lends as
// windows (rpc.Gather, the shape of a chunk read from the page cache)
// costs the same as one it commits: on the stream carriers the windows
// and the release ride the request. The mem carrier's one is the
// handler's region boxed as an rpc.Bulk (dispatch). The doorbell's
// segment-window reservation arms its wait timer only when it has to wait
// (segAlloc.acquire), so a call that finds a window free allocates
// nothing.
var bulkRPCAllocPins = map[string]float64{"mem": 1, "tcp": 0, "tcp-pool": 0, "shm-pool": 0}

// TestBulkRPCAllocs pins bulkRPCAllocPins.
func TestBulkRPCAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of its Puts")
	}
	m := newMatrix(t, newTestServer().Server, 0)
	src := [][]byte{make([]byte, 8<<10)}
	for _, name := range allocCarriers(m) {
		c := m.mustDial(t, name, 1)
		for _, tc := range []struct {
			name string
			op   rpc.Op
			dir  rpc.BulkDir
		}{{"BulkIn", opPointSink, rpc.BulkIn}, {"BulkOut", opPointFill, rpc.BulkOut}, {"gathered BulkOut", opPointLend, rpc.BulkOut}} {
			allocs := rpcAllocs(t, c, tc.op, src, tc.dir)
			if pin := bulkRPCAllocPins[name]; allocs > pin {
				t.Errorf("an 8 KiB %s RPC over %s makes %v allocations, pin %v", tc.name, name, allocs, pin)
			}
			t.Logf("%v allocations per 8 KiB %s RPC over %s", allocs, tc.name, name)
		}
	}
}

// BenchmarkEmptyRPC is the per-call cost of the transport: an empty
// request and reply over the client's path (a one-connection pool on
// loopback TCP), from one caller and from GOMAXPROCS callers. The
// handler is as stack-deep as a metadata transaction; "inline" runs it
// as a point op on the connection's reader, "spawned" registers the
// same handler as an ordinary op, so the difference is what a fresh
// goroutine per request costs. "floor" is the kernel's part of the same
// exchange (tcpFloor), so a run also reports the transport's overhead
// over it.
func BenchmarkEmptyRPC(b *testing.B) {
	b.Run("floor", tcpFloor)
	s := newMatrix(b, newTestServer().Server, 0)
	for _, d := range []struct {
		name string
		op   rpc.Op
	}{{"inline", opPointEmpty}, {"spawned", opSpawnEmpty}} {
		c := s.mustDial(b, "tcp-pool", 1)
		b.Run(d.name+"/serial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rpc.Call(c, d.op, nil, nil, rpc.BulkNone, rpc.Trace{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(d.name+"/parallel", func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := rpc.Call(c, d.op, nil, nil, rpc.BulkNone, rpc.Trace{}); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// tcpFloor is a raw loopback TCP ping-pong of an empty call's frames: the
// caller writes a request the size of an empty request frame and reads
// its own reply, the size of an empty reply frame; the server goroutine
// reads each request and writes the reply. No transport code runs on
// either side.
func tcpFloor(b *testing.B) {
	const (
		requestLen = 4 + minRequestLen + 4 // length prefix, header, bulkLen
		replyLen   = 4 + minResponseLen + 4
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		req, reply := make([]byte, requestLen), make([]byte, replyLen)
		for {
			if _, err := io.ReadFull(c, req); err != nil {
				return
			}
			if _, err := c.Write(reply); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	req, reply := make([]byte, requestLen), make([]byte, replyLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Write(req); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(c, reply); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c.Close()
	<-served
}
