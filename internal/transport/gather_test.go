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

// A BulkOut handler may lend its reply as windows (rpc.Gather) instead
// of filling the carrier's region: the inline carrier sends them where
// they lie, every other carrier gets them copied into its region. These
// tests pin that both give the caller the same bytes and that the
// handler's release runs exactly once on every path out of a call.

// gatherSrc is the memory gathered replies are lent from.
var gatherSrc = func() []byte {
	b := make([]byte, 256<<10)
	for i := range b {
		b[i] = byte(i*7 + i>>12)
	}
	return b
}()

// gatherReply is the reply of n bytes a handler lends: three windows of
// gatherSrc, out of order, so a carrier that sent them as one region or
// in the wrong order shows.
func gatherReply(n int) [][]byte {
	a, b := n/3, 2*n/3
	return [][]byte{gatherSrc[b:n], gatherSrc[:a], gatherSrc[a:b]}
}

// gatherWant is what a caller must see of gatherReply(n).
func gatherWant(n int) []byte {
	return bytes.Join(gatherReply(n), nil)
}

// registerGatherOps registers the ops of the gathered-reply tests.
func (s *testServer) registerGatherOps() {
	release := func() { s.released.Add(1) }
	s.Register(opGather, func(req []byte, bulk rpc.Bulk) ([]byte, error) {
		return []byte("ok"), rpc.Gather(bulk, gatherReply(int(binary.LittleEndian.Uint32(req))), release)
	})
	s.Register(opGatherPart, func(req []byte, bulk rpc.Bulk) ([]byte, error) {
		n := int(binary.LittleEndian.Uint32(req))
		region, err := bulk.Writable(n)
		if err != nil {
			return nil, err
		}
		copy(region[:n/2], gatherWant(n))
		return nil, rpc.Gather(bulk, [][]byte{region[:n/2], gatherWant(n)[n/2:]}, release)
	})
	s.Register(opGatherFail, func(_ []byte, bulk rpc.Bulk) ([]byte, error) {
		if err := rpc.Gather(bulk, gatherReply(bulk.Len()), release); err != nil {
			return nil, err
		}
		return nil, errors.New("failed after lending its reply")
	})
	s.Register(opGatherBig, func(_ []byte, bulk rpc.Bulk) ([]byte, error) {
		var windows [][]byte
		for n := bulk.Len(); n > 0; n -= len(windows[len(windows)-1]) {
			windows = append(windows, gatherSrc[:min(n, len(gatherSrc))])
		}
		return []byte("too big to send"), rpc.Gather(bulk, windows, release)
	})
	s.Register(opGatherHold, func(_ []byte, bulk rpc.Bulk) ([]byte, error) {
		<-s.gatherHold
		return nil, rpc.Gather(bulk, gatherReply(bulk.Len()), release)
	})
}

// waitReleased waits until the server has run want releases, and fails
// if it runs more.
func (s *testServer) waitReleased(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.released.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // room for a second release to show
	if got := s.released.Load(); got != want {
		t.Fatalf("released %d times, want %d", got, want)
	}
}

// TestGatherRepliesIdenticallyOnEveryCarrier lends replies of several
// sizes to contiguous and scattered regions on every connection type —
// the inline carrier sends the windows, the segment and the mem conn get
// them copied — and to a handler that lends part of its reply from the
// carrier's own region. Every caller sees the lent bytes, in order, then
// zeros, over dirty windows, and every reply is released once.
func TestGatherRepliesIdenticallyOnEveryCarrier(t *testing.T) {
	const win = 48 << 10
	srv := newTestServer()
	var calls int64 // replies lent so far, over every carrier
	for name, c := range conns(t, srv.Server) {
		t.Run(name, func(t *testing.T) {
			for _, op := range []rpc.Op{opGather, opGatherPart} {
				for _, n := range []int{0, 1, win - 100, win, 2*win - 1, 2 * win} {
					req := binary.LittleEndian.AppendUint32(nil, uint32(n))
					region := newScatterRegion(win)
					if _, err := rpc.Call(c, op, req, region.wins, rpc.BulkOut, rpc.Trace{}); err != nil {
						t.Fatalf("op %d, %d bytes over two windows: %v", op, n, err)
					}
					got := bytes.Join(region.wins, nil)
					if !bytes.Equal(got[:n], gatherWant(n)) || !allBytes(0, got[n:]) {
						t.Fatalf("op %d, %d bytes over two windows: not the lent bytes then zeros", op, n)
					}
					if !allBytes(0xEE, region.gaps...) {
						t.Fatalf("op %d, %d bytes: the transport wrote outside the windows", op, n)
					}
					one := bytes.Repeat([]byte{0xEE}, 2*win)
					if _, err := c.Call(op, req, one, rpc.BulkOut); err != nil {
						t.Fatalf("op %d, %d bytes into one region: %v", op, n, err)
					}
					if !bytes.Equal(one[:n], gatherWant(n)) || !allBytes(0, one[n:]) {
						t.Fatalf("op %d, %d bytes into one region: not the lent bytes then zeros", op, n)
					}
					calls += 2
				}
			}
			srv.waitReleased(t, calls)
		})
	}
}

// TestGatherReleasesOnceOnEveryPath runs a lent reply's release through
// each way a call can end on the inline carrier: the reply written, a
// handler error after the lend, a reply too large for a frame (degraded
// to a per-call error), and a connection that died before the write. In
// each the release runs exactly once, and only a dead connection ends
// the stream.
func TestGatherReleasesOnceOnEveryPath(t *testing.T) {
	srv := newTestServer()
	m := newMatrix(t, srv.Server, 0)
	addr, c := m.tcp, m.mustDial(t, "tcp", 1)

	t.Run("written", func(t *testing.T) {
		srv.released.Store(0)
		got := make([]byte, 64<<10)
		if _, err := c.Call(opGather, binary.LittleEndian.AppendUint32(nil, 60<<10), got, rpc.BulkOut); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:60<<10], gatherWant(60<<10)) {
			t.Fatal("reply is not the lent bytes")
		}
		srv.waitReleased(t, 1)
	})
	t.Run("handler-error", func(t *testing.T) {
		srv.released.Store(0)
		_, err := c.Call(opGatherFail, nil, make([]byte, 64<<10), rpc.BulkOut)
		if err == nil || !strings.Contains(err.Error(), "failed after lending") {
			t.Fatalf("err = %v, want the handler's", err)
		}
		srv.waitReleased(t, 1)
	})
	t.Run("frame-too-big", func(t *testing.T) {
		// The request only advertises the region, so a frame-sized reply
		// costs the test no frame-sized buffer.
		srv.released.Store(0)
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		if _, err := raw.Write(rawBulkFrame(9, opGatherBig, rpc.BulkOut, nil, maxFrame)); err != nil {
			t.Fatal(err)
		}
		status, payload, err := readRawStatus(raw)
		if err != nil || status != 1 || !strings.Contains(string(payload), errFrameTooBig.Error()) {
			t.Fatalf("reply status %d %q, %v; want the frame-too-big error", status, payload, err)
		}
		srv.waitReleased(t, 1)
		if _, err := raw.Write(rawFrame(10, opEcho, []byte("x"))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := readRawStatus(raw); err != nil {
			t.Fatalf("the connection did not survive the degraded reply: %v", err)
		}
	})
	t.Run("connection-failed", func(t *testing.T) {
		// An ordinary op runs beside the reader, which sees the client
		// go away and closes the connection before the handler lends.
		srv.released.Store(0)
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := raw.Write(rawBulkFrame(11, opGatherHold, rpc.BulkOut, nil, 64<<10)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
		raw.Close()
		time.Sleep(20 * time.Millisecond)
		close(srv.gatherHold)
		srv.waitReleased(t, 1)
	})
}

// readRawStatus reads one response frame off c and returns its status
// and payload, discarding any bulk.
func readRawStatus(c net.Conn) (byte, []byte, error) {
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var pfx [4]byte
	if _, err := io.ReadFull(c, pfx[:]); err != nil {
		return 0, nil, err
	}
	body := make([]byte, binary.LittleEndian.Uint32(pfx[:]))
	if _, err := io.ReadFull(c, body); err != nil {
		return 0, nil, err
	}
	plen := binary.LittleEndian.Uint32(body[9:])
	return body[8], body[13 : 13+plen], nil
}
