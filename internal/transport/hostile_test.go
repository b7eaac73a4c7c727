package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/rpc"
)

// Regression tests for length-prefix overflow in frame parsing: a payload
// length near 0xFFFFFFFF made plen+4 wrap past the truncation check and
// panicked the daemon (or the client's read loop) on p[:plen]. Corrupt
// frames must close the connection and leave the server serving. There
// is one parser for both bulk carriers, so every case runs against a TCP
// listener and — after a valid handshake — a shm doorbell.

// rawRequest frames a request with arbitrary header fields: the inner
// lengths need not match the bytes actually present.
func rawRequest(dir byte, plen, blen uint32, hasBlen bool, tail int) []byte {
	body := make([]byte, 0, 32+tail)
	body = binary.LittleEndian.AppendUint64(body, 1) // reqID
	body = binary.LittleEndian.AppendUint16(body, 1) // op
	body = append(body, dir)
	body = binary.LittleEndian.AppendUint32(body, plen)
	if hasBlen {
		body = binary.LittleEndian.AppendUint32(body, blen)
	}
	body = append(body, make([]byte, tail)...)
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	return append(out, body...)
}

// rawRefRequest frames an empty-payload by-reference request: dirRefFlag
// set and [u64 segOff] where the inline bulk would be.
func rawRefRequest(op rpc.Op, dir rpc.BulkDir, blen uint32, off uint64) []byte {
	body := binary.LittleEndian.AppendUint64(nil, 1) // reqID
	body = binary.LittleEndian.AppendUint16(body, uint16(op))
	body = append(body, byte(dir)|dirRefFlag)
	body = binary.LittleEndian.AppendUint32(body, 0) // payloadLen
	body = binary.LittleEndian.AppendUint32(body, blen)
	body = binary.LittleEndian.AppendUint64(body, off)
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	return append(out, body...)
}

// wireTarget is one listener the hostile tables run against.
type wireTarget struct {
	name string
	ref  bool   // by-reference carrier: requests carry dirRefFlag + segOff
	seg  uint64 // segment size, by reference
	raw  func(t *testing.T) net.Conn
	dial func(timeout time.Duration) (rpc.Conn, error)
}

// wireTargets serves srv over every carrier the platform has.
func wireTargets(t *testing.T, srv *rpc.Server) []wireTarget {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go ServeTCP(l, srv)
	addr := l.Addr().String()
	tcp := wireTarget{
		name: "tcp",
		raw: func(t *testing.T) net.Conn {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
		dial: func(timeout time.Duration) (rpc.Conn, error) { return DialTCP(addr, timeout) },
	}
	return append([]wireTarget{tcp}, platformTargets(t, srv)...)
}

// sendRaw writes frame to the TCP listener at addr and reports whether
// the server closed the connection afterwards.
func sendRaw(t *testing.T, addr string, frame []byte) bool {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return closedAfter(c, frame)
}

// closedAfter writes frame to the raw stream c and reports whether the
// server closed the connection afterwards.
func closedAfter(c net.Conn, frame []byte) bool {
	defer c.Close()
	if _, err := c.Write(frame); err != nil {
		return true
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := c.Read(make([]byte, 1))
	if err == nil {
		return false
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return false
	}
	return true
}

// assertServing checks the daemon survived: a fresh, legitimate
// connection to tg works.
func assertServing(t *testing.T, tg wireTarget) {
	t.Helper()
	c, err := tg.dial(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(opEcho, []byte("alive"), nil, rpc.BulkNone)
	if err != nil || string(resp) != "echo:alive" {
		t.Fatalf("post-hostile call = %q, %v", resp, err)
	}
}

func TestHostileFramesCloseConnection(t *testing.T) {
	srv := newTestServer()
	for _, tg := range wireTargets(t, srv) {
		// The shared table: on a doorbell every frame also carries the
		// by-reference flag and a zero segment offset, so it is the named
		// defect — not a carrier mismatch — that closes the connection.
		flag, off := byte(0), 0
		if tg.ref {
			flag, off = dirRefFlag, refLen
		}
		type hostile struct {
			name  string
			frame []byte
		}
		cases := []hostile{
			// plen+4 wraps to 1 under u32 arithmetic; the old check passed and
			// p[:plen] panicked the handler goroutine (taking the daemon down).
			{"payload-len-wrap", rawRequest(byte(rpc.BulkNone)|flag, 0xFFFFFFFD, 0, false, 8+off)},
			// Bulk length beyond the remaining frame on the write path.
			{"bulk-len-overrun", rawRequest(byte(rpc.BulkIn)|flag, 0, 0xFFFFFFFF, true, 2+off)},
			// A BulkOut budget above maxFrame (and any segment) must not be
			// honored (the old code materialized it outright — a 4 GiB
			// allocation per frame).
			{"huge-bulkout-budget", rawRequest(byte(rpc.BulkOut)|flag, 0, 0xFFFFFFF0, true, off)},
			// Frame shorter than the fixed request header.
			{"truncated-header", append(binary.LittleEndian.AppendUint32(nil, 5), make([]byte, 5)...)},
			// Direction byte outside the BulkDir range.
			{"invalid-direction", rawRequest(9|flag, 0, 0, true, off)},
			// Trace bit set but no room for the trailer.
			{"trace-flag-no-trailer", rawRequest(byte(rpc.BulkNone)|flag|dirTraceFlag, 2, 0, true, 2+off)},
		}
		if tg.ref {
			cases = append(cases,
				// A window that starts inside the segment but ends past it.
				hostile{"window-outside-segment", rawRefRequest(opWrite, rpc.BulkIn, 16, tg.seg-8)},
				// off+len wraps u64 to a small in-bounds number.
				hostile{"window-off-len-wrap", rawRefRequest(opWrite, rpc.BulkIn, 16, 0xFFFFFFFFFFFFFFF8)},
				// A well-formed inline frame: a doorbell carries no bulk bytes.
				hostile{"ref-flag-missing", rawRequest(byte(rpc.BulkNone), 0, 0, true, 0)},
			)
		} else {
			// A well-formed by-reference frame: TCP has no segment to point into.
			cases = append(cases, hostile{"ref-flag-on-inline-listener", rawRefRequest(opEcho, rpc.BulkNone, 0, 0)})
		}
		for _, tc := range cases {
			t.Run(tg.name+"/"+tc.name, func(t *testing.T) {
				if !closedAfter(tg.raw(t), tc.frame) {
					t.Fatal("server kept the connection open after a corrupt frame")
				}
				assertServing(t, tg)
			})
		}
	}
}

// TestRawRefFrameServed is the positive control for the by-reference
// cases above: a hand-built doorbell frame whose window lies inside the
// segment is served, so the hostile ones are rejected for the defect
// they name and not for a malformed test frame.
func TestRawRefFrameServed(t *testing.T) {
	srv := newTestServer()
	for _, tg := range wireTargets(t, srv) {
		if !tg.ref {
			continue
		}
		c := tg.raw(t)
		defer c.Close()
		if _, err := c.Write(rawRefRequest(opWrite, rpc.BulkIn, 16, tg.seg-16)); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		var pfx [4]byte
		if _, err := io.ReadFull(c, pfx[:]); err != nil {
			t.Fatalf("read response prefix: %v", err)
		}
		rest := make([]byte, binary.LittleEndian.Uint32(pfx[:]))
		if _, err := io.ReadFull(c, rest); err != nil {
			t.Fatalf("read response body: %v", err)
		}
		plen := binary.LittleEndian.Uint32(rest[9:])
		if status, got := rest[8], string(rest[13:13+plen]); status != 0 || got != "16:0" {
			t.Fatalf("response status %d payload %q, want OK %q", status, got, "16:0")
		}
	}
}

// TestTruncatedMidFrameRequestLeavesServerServing targets the split
// header/bulk reader: a client that dies after the request header but
// mid-bulk (inline) or mid-offset-word (by reference) leaves the server
// blocked in a ReadFull. The read must fail with the connection — never
// dispatch a short region — and the server must keep serving other
// connections.
func TestTruncatedMidFrameRequestLeavesServerServing(t *testing.T) {
	srv := newTestServer()
	for _, tg := range wireTargets(t, srv) {
		t.Run(tg.name, func(t *testing.T) {
			const blen = 64 << 10
			var frame []byte
			if tg.ref {
				frame = rawRefRequest(opWrite, rpc.BulkIn, blen, 0)
				frame = frame[:len(frame)-refLen/2] // half the offset word, then crash
			} else {
				frame = binary.LittleEndian.AppendUint32(nil, uint32(minRequestLen+4+blen))
				frame = binary.LittleEndian.AppendUint64(frame, 7)               // reqID
				frame = binary.LittleEndian.AppendUint16(frame, uint16(opWrite)) // op
				frame = append(frame, byte(rpc.BulkIn))                          // dir
				frame = binary.LittleEndian.AppendUint32(frame, 0)               // payloadLen
				frame = binary.LittleEndian.AppendUint32(frame, blen)            // bulkLen
				frame = append(frame, make([]byte, blen/2)...)                   // half the bulk, then crash
			}
			conn := tg.raw(t)
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			conn.Close()
			assertServing(t, tg)
		})
	}
}

// readRawRequestID consumes one request frame off c and returns its id.
func readRawRequestID(c net.Conn) (uint64, error) {
	hdr := make([]byte, 4)
	if _, err := io.ReadFull(c, hdr); err != nil {
		return 0, err
	}
	body := make([]byte, binary.LittleEndian.Uint32(hdr))
	if _, err := io.ReadFull(c, body); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(body), nil
}

// rawResponse frames an OK response with arbitrary length fields and
// tail bytes following the bulk-length word.
func rawResponse(reqID uint64, plen uint32, blen uint32, hasBlen bool, tail int) []byte {
	resp := binary.LittleEndian.AppendUint64(nil, reqID)
	resp = append(resp, 0) // status OK
	resp = binary.LittleEndian.AppendUint32(resp, plen)
	if hasBlen {
		resp = binary.LittleEndian.AppendUint32(resp, blen)
	}
	resp = append(resp, make([]byte, tail)...)
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(resp)))
	return append(out, resp...)
}

// scatterRegion is a BulkOut region of two windows cut from one backing
// array with a gap before, between and after them. Everything starts as
// 0xEE, so a byte the transport wrote — inside a window or past one — is
// a byte that no longer reads 0xEE.
type scatterRegion struct {
	backing    []byte
	wins, gaps [][]byte
}

func newScatterRegion(win int) scatterRegion {
	const gap = 64
	b := bytes.Repeat([]byte{0xEE}, 3*gap+2*win)
	w0, w1 := gap, 2*gap+win
	return scatterRegion{
		backing: b,
		wins:    [][]byte{b[w0 : w0+win : w0+win], b[w1 : w1+win : w1+win]},
		gaps:    [][]byte{b[:w0], b[w0+win : w1], b[w1+win:]},
	}
}

// allBytes reports whether every byte of every piece is v.
func allBytes(v byte, pieces ...[]byte) bool {
	for _, p := range pieces {
		if bytes.Count(p, []byte{v}) != len(p) {
			return false
		}
	}
	return true
}

// TestHostileResponseFailsClientCleanly serves corrupt responses from a
// fake daemon on every carrier, to a contiguous BulkOut call and to a
// scatter call of the same size; the client must surface a connection
// error — not panic its read loop, hang, deliver a short read as success
// or write outside the windows it exposed — and condemn the connection,
// not the process.
func TestHostileResponseFailsClientCleanly(t *testing.T) {
	const blen = 64 << 10
	cases := []struct {
		name     string
		want     string // the error every carrier must report, identically
		pristine bool   // the region must not have been written at all
		respond  func(reqID uint64, ref bool) []byte
	}{
		// plen = 0xFFFFFFFE: plen+4 wraps to 2.
		{"payload-len-wrap", "truncated", true, func(id uint64, _ bool) []byte { return rawResponse(id, 0xFFFFFFFE, 0, false, 8) }},
		// An otherwise well-formed response carrying more bulk than the
		// region — the one window, or the sum of the windows — the call
		// exposed: refused before a byte of it is placed.
		{"bulk-exceeds-region", "response bulk 131072 exceeds exposed region 65536", true, func(id uint64, ref bool) []byte {
			if ref {
				return rawResponse(id, 0, 2*blen, true, 0)
			}
			return rawResponse(id, 0, 2*blen, true, 2*blen)
		}},
		// The header advertises inline bulk bytes but the server dies
		// before sending them all: on the inline carrier the read loop was
		// scattering into the waiting call's windows (the scatter call's
		// first is full, its second never started); a doorbell response
		// may carry no bytes at all.
		{"truncated-mid-bulk", "", false, func(id uint64, _ bool) []byte {
			f := rawResponse(id, 0, blen, true, blen)
			return f[:len(f)-blen/2]
		}},
	}
	for _, tc := range cases {
		for _, shape := range []string{"contiguous", "scatter"} {
			daemons := fakeDaemons(t, func(c net.Conn, ref bool) {
				if id, err := readRawRequestID(c); err == nil {
					c.Write(tc.respond(id, ref))
				}
			})
			for name, dial := range daemons {
				t.Run(name+"/"+shape+"/"+tc.name, func(t *testing.T) {
					c, err := dial()
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					region := newScatterRegion(blen / 2)
					if shape == "scatter" {
						_, err = c.(rpc.ScatterCaller).CallScatter(opRead, nil, region.wins, rpc.Trace{})
					} else {
						region = scatterRegion{backing: bytes.Repeat([]byte{0xEE}, blen)}
						_, err = c.Call(opRead, nil, region.backing, rpc.BulkOut)
					}
					if err == nil || !strings.Contains(err.Error(), tc.want) {
						t.Fatalf("corrupt response: err = %v, want one containing %q", err, tc.want)
					}
					if !allBytes(0xEE, region.gaps...) {
						t.Fatal("the transport wrote outside the windows the call exposed")
					}
					if tc.pristine && !allBytes(0xEE, region.backing) {
						t.Fatal("the transport wrote into a region whose response it refused")
					}
					if _, err := c.Call(opEcho, []byte("y"), nil, rpc.BulkNone); err == nil {
						t.Fatal("condemned connection accepted another call")
					}
				})
			}
		}
	}
}

// Ops of the scatter-contract tests below, registered on top of
// newTestServer's.
const (
	opShortFill rpc.Op = 200 + iota // fills the whole region with 0x5A, commits the first u32(req) bytes
	opLateFill                      // sleeps past the call timeout, then pushes 0xA5 over the whole region
)

func newScatterServer() *rpc.Server {
	srv := newTestServer()
	srv.Register(opShortFill, func(req []byte, bulk rpc.Bulk) ([]byte, error) {
		w, err := bulk.Writable(bulk.Len())
		if err != nil {
			return nil, err
		}
		for i := range w {
			w[i] = 0x5A
		}
		return nil, bulk.Commit(int(binary.LittleEndian.Uint32(req)))
	})
	srv.Register(opLateFill, func(_ []byte, bulk rpc.Bulk) ([]byte, error) {
		time.Sleep(200 * time.Millisecond)
		return nil, bulk.Push(bytes.Repeat([]byte{0xA5}, bulk.Len()))
	})
	return srv
}

// TestHostileScatterShortBulkLeavesZeroTail pins the carrier's half of
// the BulkOut contract on every connection type, those that scatter
// natively and those rpc.CallScatter stages for: a response shorter than
// the windows fills them in order with the server's bytes and the rest
// of the region — here the end of the first window and all of the second
// — reads as zeros, whatever the caller left there. A commit of zero
// bytes and one of the whole region are the two edges.
func TestHostileScatterShortBulkLeavesZeroTail(t *testing.T) {
	const win = 48 << 10
	for name, c := range connsAgainst(t, newScatterServer()) {
		for _, n := range []int{0, win - 100, win, win + 100, 2 * win} {
			region := newScatterRegion(win)
			req := binary.LittleEndian.AppendUint32(nil, uint32(n))
			if _, err := rpc.CallScatter(c, opShortFill, req, region.wins, rpc.Trace{}); err != nil {
				t.Fatalf("%s: commit %d: %v", name, n, err)
			}
			got := append(append([]byte(nil), region.wins[0]...), region.wins[1]...)
			if !allBytes(0x5A, got[:n]) || !allBytes(0, got[n:]) {
				t.Fatalf("%s: commit %d of %d: region is not %d server bytes then zeros", name, n, 2*win, n)
			}
			if !allBytes(0xEE, region.gaps...) {
				t.Fatalf("%s: commit %d: the transport wrote outside the windows", name, n)
			}
		}
	}
}

// TestHostileScatterLateResponseLeavesWindowsAlone times a scatter call
// out on every carrier: once the call has returned its windows belong to
// the caller again, so the late response must be drained (inline) or its
// segment window reclaimed (by reference) without a byte of it reaching
// them — "Claimed calls are always delivered" read the other way round —
// and the connection must stay usable.
func TestHostileScatterLateResponseLeavesWindowsAlone(t *testing.T) {
	srv := newScatterServer()
	for _, tg := range wireTargets(t, srv) {
		t.Run(tg.name, func(t *testing.T) {
			c, err := tg.dial(30 * time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			region := newScatterRegion(16 << 10)
			_, err = c.(rpc.ScatterCaller).CallScatter(opLateFill, nil, region.wins, rpc.Trace{})
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("late scatter call: err = %v, want ErrTimeout", err)
			}
			time.Sleep(300 * time.Millisecond) // the late response lands and is drained
			if !allBytes(0xEE, region.backing) {
				t.Fatal("a timed-out call's late response reached the windows it had returned")
			}
			got := make([]byte, 16)
			if _, err := c.Call(opRead, nil, got, rpc.BulkOut); err != nil || !allBytes(0x5A, got) {
				t.Fatalf("post-timeout call = %x, %v", got, err)
			}
		})
	}
}

// fakeDaemons starts, per carrier, a one-connection server that runs
// script on the accepted (and, for a doorbell, handshaken) stream and
// then closes it — a daemon that misbehaves or dies mid-conversation.
// It returns a dial function per carrier.
func fakeDaemons(t *testing.T, script func(c net.Conn, ref bool)) map[string]func() (rpc.Conn, error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		script(c, false)
	}()
	addr := l.Addr().String()
	m := map[string]func() (rpc.Conn, error){
		"tcp": func() (rpc.Conn, error) { return DialTCP(addr, 5*time.Second) },
	}
	for name, dial := range platformFakeDaemons(t, script) {
		m[name] = dial
	}
	return m
}
