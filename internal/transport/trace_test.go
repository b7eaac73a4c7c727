package transport

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/rpc"
)

// traceRecorder collects every trace the server observer sees, keyed by
// op, so tests can assert exactly which calls carried which IDs.
type traceRecorder struct {
	mu   sync.Mutex
	seen map[rpc.Op][]rpc.Trace
}

func newTraceRecorder(srv *rpc.Server) *traceRecorder {
	r := &traceRecorder{seen: make(map[rpc.Op][]rpc.Trace)}
	srv.SetObserver(func(op rpc.Op, tr rpc.Trace, queueWait, handle time.Duration, err error) {
		if queueWait < 0 || handle < 0 {
			panic("negative observer duration")
		}
		r.mu.Lock()
		r.seen[op] = append(r.seen[op], tr)
		r.mu.Unlock()
	})
	return r
}

func (r *traceRecorder) take(op rpc.Op) []rpc.Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.seen[op]
	delete(r.seen, op)
	return out
}

// TestTraceRoundTripAllTransports sends a sampled trace through every
// transport and bulk direction and asserts the server observer receives
// the exact ID and flags alongside a correct response.
func TestTraceRoundTripAllTransports(t *testing.T) {
	srv := newTestServer().Server
	rec := newTraceRecorder(srv)
	for name, c := range conns(t, srv) {
		if _, ok := c.(rpc.Vectored); !ok {
			t.Errorf("%s: connection does not implement rpc.Vectored", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			tr := rpc.Trace{ID: 0xDEADBEEFCAFE0001, Flags: rpc.TraceSampled}

			resp, err := rpc.Call(c, opEcho, []byte("hi"), nil, rpc.BulkNone, tr)
			if err != nil || string(resp) != "echo:hi" {
				t.Fatalf("BulkNone call = %q, %v", resp, err)
			}
			if got := rec.take(opEcho); len(got) != 1 || got[0] != tr {
				t.Fatalf("observer saw %v for BulkNone, want [%v]", got, tr)
			}

			if _, err := rpc.Call(c, opWrite, nil, rpc.Region(make([]byte, 4096)), rpc.BulkIn, tr); err != nil {
				t.Fatalf("BulkIn call: %v", err)
			}
			if got := rec.take(opWrite); len(got) != 1 || got[0] != tr {
				t.Fatalf("observer saw %v for BulkIn, want [%v]", got, tr)
			}

			buf := make([]byte, 4096)
			if _, err := rpc.Call(c, opRead, nil, rpc.Region(buf), rpc.BulkOut, tr); err != nil {
				t.Fatalf("BulkOut call: %v", err)
			}
			if buf[0] != 0x5A || buf[len(buf)-1] != 0x5A {
				t.Fatalf("BulkOut data not delivered")
			}
			if got := rec.take(opRead); len(got) != 1 || got[0] != tr {
				t.Fatalf("observer saw %v for BulkOut, want [%v]", got, tr)
			}
		})
	}
}

// TestUntracedCallObservedAsZeroTrace asserts plain Call (and rpc.Call
// with an unsampled trace) reaches the observer with a zero Trace: the
// wire must not grow a trailer when nothing was sampled.
func TestUntracedCallObservedAsZeroTrace(t *testing.T) {
	srv := newTestServer().Server
	rec := newTraceRecorder(srv)
	for name, c := range conns(t, srv) {
		t.Run(name, func(t *testing.T) {
			if _, err := c.Call(opEcho, []byte("x"), nil, rpc.BulkNone); err != nil {
				t.Fatalf("Call: %v", err)
			}
			if got := rec.take(opEcho); len(got) != 1 || got[0] != (rpc.Trace{}) {
				t.Fatalf("observer saw %v, want one zero trace", got)
			}
			if _, err := rpc.Call(c, opEcho, []byte("y"), nil, rpc.BulkNone, rpc.Trace{}); err != nil {
				t.Fatalf("unsampled call: %v", err)
			}
			if got := rec.take(opEcho); len(got) != 1 || got[0] != (rpc.Trace{}) {
				t.Fatalf("observer saw %v after an unsampled call, want one zero trace", got)
			}
		})
	}
}

// TestOldShapeRawFrameStillServed is the protocol-v7 backward
// compatibility regression: a hand-built request frame in the pre-trace
// shape — direction byte without the trace bit, no trailer — must still
// be parsed and served by a current daemon exactly as before.
func TestOldShapeRawFrameStillServed(t *testing.T) {
	conn, err := net.Dial("tcp", newMatrix(t, newTestServer().Server, 0).tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Old-shape request: [u32 rest][u64 id][u16 op][u8 dir][u32 plen]
	// [payload][u32 blen]. dir carries no 0x80 trace bit and the frame
	// ends at the bulk-length word.
	payload := []byte("hi")
	body := binary.LittleEndian.AppendUint64(nil, 7) // reqID
	body = binary.LittleEndian.AppendUint16(body, uint16(opEcho))
	body = append(body, byte(rpc.BulkNone))
	body = binary.LittleEndian.AppendUint32(body, uint32(len(payload)))
	body = append(body, payload...)
	body = binary.LittleEndian.AppendUint32(body, 0) // blen
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	frame = append(frame, body...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}

	// Response: [u32 rest][u64 id][u8 status][u32 plen][payload]...
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var pfx [4]byte
	if _, err := io.ReadFull(conn, pfx[:]); err != nil {
		t.Fatalf("read response prefix: %v", err)
	}
	rest := make([]byte, binary.LittleEndian.Uint32(pfx[:]))
	if _, err := io.ReadFull(conn, rest); err != nil {
		t.Fatalf("read response body: %v", err)
	}
	if id := binary.LittleEndian.Uint64(rest[0:]); id != 7 {
		t.Fatalf("response reqID = %d, want 7", id)
	}
	if status := rest[8]; status != 0 {
		t.Fatalf("response status = %d, want OK", status)
	}
	plen := binary.LittleEndian.Uint32(rest[9:])
	if got := string(rest[13 : 13+plen]); got != "echo:hi" {
		t.Fatalf("response payload = %q, want %q", got, "echo:hi")
	}
}

// TestTraceFlagWithMissingTrailerRejected asserts a frame claiming the
// trace bit but whose outer length leaves no room for the trailer is
// treated as hostile: the connection closes, the server keeps serving.
func TestTraceFlagWithMissingTrailerRejected(t *testing.T) {
	addr := newMatrix(t, newTestServer().Server, 0).tcp

	// Identical to the old-shape frame but with the trace bit set and no
	// trailer bytes: the length check must reject it before dispatch.
	frame := rawRequest(byte(rpc.BulkNone)|dirTraceFlag, 2, 0, true, 2)
	if !sendRaw(t, addr, frame) {
		t.Fatal("server kept a trace-flagged frame with no trailer")
	}

	// The listener must still serve well-formed traffic afterwards.
	c, err := DialTCP(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Call(opEcho, []byte("ok"), nil, rpc.BulkNone); err != nil || string(resp) != "echo:ok" {
		t.Fatalf("post-hostile Call = %q, %v", resp, err)
	}
}
