package client

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/daemon"
	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/transport/wiretest"
)

// narrowWindow caps fd's in-flight windows — write-behind's and
// read-ahead's, whichever it has — at n regions: the white-box seam for
// tests that need a shallower window than the default. A read-ahead
// window of n regions reaches n-1 fetches past the reader. Call it before
// the descriptor's first I/O.
func narrowWindow(t *testing.T, c *Client, fd, n int) {
	t.Helper()
	of, err := c.lookupFD(fd)
	if err != nil {
		t.Fatal(err)
	}
	if of.wb != nil {
		of.wb.k = n
	}
	if of.ra != nil {
		of.ra.w.k = n
	}
}

func sumStats(daemons []*daemon.Daemon) daemon.Stats {
	var total daemon.Stats
	for _, d := range daemons {
		st := d.Stats()
		total.StatOps += st.StatOps
		total.ReadOps += st.ReadOps
		total.WriteOps += st.WriteOps
		total.SizeUpdates += st.SizeUpdates
	}
	return total
}

// TestAsyncFsyncBarrier verifies the two halves of the Fsync contract
// under write-behind: the in-flight window is drained (data readable by
// another client) and the cached size candidate is flushed (no size
// update RPC leaves the client before the barrier, exactly one does at
// it).
func TestAsyncFsyncBarrier(t *testing.T) {
	c, daemons, mount := newCluster(t, "mem", 4, Config{ChunkSize: 64, AsyncWrites: true})
	fd, err := c.Open("/a", O_CREATE|O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	narrowWindow(t, c, fd, 4)
	payload := bytes.Repeat([]byte{0x5A}, 1000) // spans many chunks, all daemons
	if _, err := c.WriteAt(fd, payload, 0); err != nil {
		t.Fatal(err)
	}
	if n := sumStats(daemons).SizeUpdates; n != 0 {
		t.Fatalf("size update RPC before the barrier (%d)", n)
	}
	other := mount()
	if info, err := other.Stat("/a"); err != nil || info.Size() != 0 {
		t.Fatalf("pre-barrier stat = %v, %v; want size 0 (candidate unflushed)", info.Size(), err)
	}
	if err := c.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	if n := sumStats(daemons).SizeUpdates; n != 1 {
		t.Fatalf("size updates after barrier = %d, want 1", n)
	}
	if info, err := other.Stat("/a"); err != nil || info.Size() != int64(len(payload)) {
		t.Fatalf("post-barrier stat = %v, %v; want %d", info.Size(), err, len(payload))
	}
	got := make([]byte, len(payload))
	rfd, err := other.Open("/a", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := other.ReadAt(rfd, got, 0); err != nil && err != io.EOF || n != len(payload) {
		t.Fatalf("post-barrier read = %d, %v", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("post-barrier read returned wrong bytes")
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncCloseBarrier verifies Close alone (no Fsync) drains the
// window and flushes the size.
func TestAsyncCloseBarrier(t *testing.T) {
	c, _, mount := newCluster(t, "mem", 3, Config{ChunkSize: 32, AsyncWrites: true})
	fd, err := c.Open("/b", O_CREATE|O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 500)
	if _, err := c.WriteAt(fd, payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	other := mount()
	got, n := make([]byte, 600), 0
	rfd, err := other.Open("/b", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	if n, err = other.ReadAt(rfd, got, 0); err != io.EOF {
		t.Fatalf("read past EOF = %v, want io.EOF", err)
	}
	if n != len(payload) || !bytes.Equal(got[:n], payload) {
		t.Fatalf("after Close: read %d bytes, want %d", n, len(payload))
	}
}

// TestAsyncReadDrainsWindow verifies program-order read-after-write on
// one descriptor: a read issued right after an asynchronous write must
// observe it (the descriptor's window is drained before the read).
func TestAsyncReadDrainsWindow(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 4, Config{ChunkSize: 64, AsyncWrites: true})
	fd, err := c.Open("/rw", O_CREATE|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	narrowWindow(t, c, fd, 2)
	defer c.Close(fd)
	for round := 0; round < 8; round++ {
		payload := bytes.Repeat([]byte{byte(round + 1)}, 333)
		off := int64(round) * 333
		if _, err := c.WriteAt(fd, payload, off); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(payload))
		if n, err := c.ReadAt(fd, got, off); (err != nil && err != io.EOF) || n != len(payload) {
			t.Fatalf("round %d: read-after-write = %d, %v", round, n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round %d: read-after-write returned stale bytes", round)
		}
	}
	// The positioned Read path drains too.
	if _, err := c.Seek(fd, 0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	first := make([]byte, 333)
	if _, err := c.Read(fd, first); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if first[0] != 1 {
		t.Fatalf("positioned read = %d, want 1", first[0])
	}
}

// TestAsyncOverlappingWritesOrdered verifies program order for
// overlapping writes on one descriptor: a rewrite of a region still in
// flight must not lose to the earlier write racing it. The pipeline
// drains before enqueueing a conflicting extent.
func TestAsyncOverlappingWritesOrdered(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 4, Config{ChunkSize: 64, AsyncWrites: true})
	fd, err := c.Open("/ow", O_CREATE|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	region := bytes.Repeat([]byte{0}, 640) // 10 chunks, all daemons
	for round := 0; round < 32; round++ {
		for i := range region {
			region[i] = byte(round + 1)
		}
		if _, err := c.WriteAt(fd, region, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(region))
	if n, err := c.ReadAt(fd, got, 0); (err != nil && err != io.EOF) || n != len(region) {
		t.Fatalf("read = %d, %v", n, err)
	}
	for i, b := range got {
		if b != 32 {
			t.Fatalf("byte %d = %d after 32 overlapping rewrites, want 32 (earlier write won the race)", i, b)
		}
	}
}

// TestAsyncTruncateDrains verifies Truncate waits for the path's staged
// writes before discarding: an in-flight chunk RPC landing after the
// truncate would resurrect discarded bytes.
func TestAsyncTruncateDrains(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 3, Config{ChunkSize: 64, AsyncWrites: true})
	fd, err := c.Open("/tr", O_CREATE|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	for round := 0; round < 16; round++ {
		if _, err := c.WriteAt(fd, bytes.Repeat([]byte{0xEE}, 640), 0); err != nil {
			t.Fatal(err)
		}
		if err := c.Truncate("/tr", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WriteAt(fd, []byte{1, 2, 3}, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.Fsync(fd); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 640)
		n, err := c.ReadAt(fd, got, 0)
		if err != io.EOF || n != 3 {
			t.Fatalf("round %d: post-truncate read = %d, %v; want 3, io.EOF (stale bytes resurrected)", round, n, err)
		}
		if got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Fatalf("round %d: post-truncate bytes = %v", round, got[:3])
		}
	}
}

// TestAsyncAppend verifies consecutive O_APPEND writes under write-behind
// don't overwrite each other: EOF resolves against the descriptor's own
// unflushed size candidate, which is raised at enqueue time.
func TestAsyncAppend(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 3, Config{ChunkSize: 64, AsyncWrites: true})
	fd, err := c.Open("/log", O_CREATE|O_WRONLY|O_APPEND)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 5; i++ {
		part := bytes.Repeat([]byte{'a' + byte(i)}, 33)
		if _, err := c.Write(fd, part); err != nil {
			t.Fatal(err)
		}
		want = append(want, part...)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	rfd, err := c.Open("/log", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(rfd)
	got := make([]byte, len(want)+8)
	n, err := c.ReadAt(rfd, got, 0)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if n != len(want) || !bytes.Equal(got[:n], want) {
		t.Fatalf("async appends interleaved wrong: got %d bytes, want %d", n, len(want))
	}
}

// TestAsyncCrashMidWindowLatchesOnce crashes a daemon under a
// write-behind window over real TCP. The write that hits the dead daemon
// still returns nil (it is acknowledged locally); the failure must
// surface at the next barrier — exactly once — and later barriers must
// run clean.
func TestAsyncCrashMidWindowLatchesOnce(t *testing.T) {
	c, daemons, _ := newCluster(t, "tcp", 3, Config{ChunkSize: 64, AsyncWrites: true})

	// A path whose metadata lives on a daemon that stays alive (node 0),
	// so only chunk traffic hits the crashed node and the barrier's size
	// flush itself succeeds.
	path := ""
	for _, cand := range []string{"/f0", "/f1", "/f2", "/f3", "/f4", "/f5"} {
		if c.dist.MetaTarget(cand) == 0 {
			path = cand
			break
		}
	}
	if path == "" {
		t.Fatal("no candidate path with metadata on node 0")
	}
	fd, err := c.Open(path, O_CREATE|O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	// The write range must include chunks owned by the victim, node 2.
	payload := make([]byte, 64*32) // chunks 0..31, hash-spread over 3 nodes
	hits := 0
	for id := int64(0); id < 32; id++ {
		if c.dist.ChunkTarget(path, meta.ChunkID(id)) == 2 {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no chunk of the write range lands on node 2; widen the range")
	}

	daemons[2].Close() // crash: every RPC it receives now fails

	// One call, so no earlier latch can surface here: it must return nil.
	if _, err := c.WriteAt(fd, payload, 0); err != nil {
		t.Fatalf("async write after crash returned synchronously: %v", err)
	}
	if err := c.Fsync(fd); err == nil {
		t.Fatal("Fsync after crashed-daemon writes returned nil")
	}
	// Surfaced exactly once: the next barrier is clean.
	if err := c.Fsync(fd); err != nil {
		t.Fatalf("second Fsync re-surfaced the latched error: %v", err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatalf("Close after surfaced error: %v", err)
	}
}

// TestAsyncErrorSurfacesOnWrite verifies the other surfacing path: when
// the application keeps writing, the latched failure comes back from a
// Write call instead, and once surfaced the descriptor quiesces.
func TestAsyncErrorSurfacesOnWrite(t *testing.T) {
	c, daemons, _ := newCluster(t, "tcp", 2, Config{ChunkSize: 64, AsyncWrites: true})
	path := ""
	for _, cand := range []string{"/g0", "/g1", "/g2", "/g3"} {
		if c.dist.MetaTarget(cand) == 0 {
			path = cand
			break
		}
	}
	if path == "" {
		t.Fatal("no candidate path with metadata on node 0")
	}
	fd, err := c.Open(path, O_CREATE|O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	narrowWindow(t, c, fd, 2)
	daemons[1].Close()
	payload := make([]byte, 64*16)
	surfaced := 0
	for i := 0; i < 50 && surfaced == 0; i++ {
		if _, err := c.WriteAt(fd, payload, int64(i)*int64(len(payload))); err != nil {
			surfaced++
		}
	}
	if surfaced == 0 {
		t.Fatal("no write surfaced the latched error in 50 calls")
	}
	// Drain whatever is still in flight; the tail may latch one more
	// failure, but barriers must eventually run clean.
	_ = c.Fsync(fd)
	if err := c.Fsync(fd); err != nil {
		t.Fatalf("barrier did not quiesce after surfacing: %v", err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatalf("Close after quiesce: %v", err)
	}
}

// TestStatFreeReadRPCCount is the acceptance assertion for the stat-free
// read protocol and the table test of the one read executor behind it:
// {through the writing descriptor, live without one, at a pinned epoch} ×
// {single span on and off the metadata owner, multi-span, hole, across
// and past EOF}; every chunk has one copy (R1 in the subtest names). Every
// case checks the returned bytes against a model of the file and the
// exact read RPCs each daemon served — a read costs chunk RPCs only (the
// stat counter must not move), one per group, plus one zero-span size
// probe at the metadata owner when no group is bound for it: a single
// chunk on the owner is exactly 1 RPC. Through the descriptor that wrote
// the file — its floor is the file's size — a read that ends inside the
// file asks the owner nothing: one RPC per group, and only the two cases
// reaching past the end pay for a size view. (The write side of the same
// table is TestSizeFloorRPCCount.)
func TestStatFreeReadRPCCount(t *testing.T) {
	const cs, nodes = 64, 4
	c, daemons, _ := newCluster(t, "mem", nodes, Config{ChunkSize: cs})
	const path = "/data"
	fd, err := c.Open(path, O_CREATE|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	// The pinned image: 6 data chunks, a 4-chunk hole, a 20-byte tail.
	snap := make([]byte, 10*cs+20)
	copy(snap, bytes.Repeat([]byte{3}, 6*cs))
	copy(snap[10*cs:], bytes.Repeat([]byte{4}, 20))
	for _, off := range []int64{0, 10 * cs} {
		end := min(off+6*cs, int64(len(snap)))
		if _, err := c.WriteAt(fd, snap[off:end], off); err != nil {
			t.Fatal(err)
		}
	}
	epoch, err := c.Snapshot("pin")
	if err != nil {
		t.Fatal(err)
	}
	// The live image diverges: the head is overwritten, the file grows.
	live := make([]byte, 12*cs)
	copy(live, snap)
	copy(live, bytes.Repeat([]byte{9}, 6*cs))
	copy(live[11*cs:], bytes.Repeat([]byte{8}, cs))
	for _, off := range []int64{0, 11 * cs} {
		end := min(off+6*cs, int64(len(live)))
		if _, err := c.WriteAt(fd, live[off:end], off); err != nil {
			t.Fatal(err)
		}
	}

	owner := c.dist.MetaTarget(path)
	onOwner, offOwner := int64(-1), int64(-1)
	for id := int64(0); id < 6; id++ {
		if c.dist.ChunkTarget(path, meta.ChunkID(id)) == owner {
			onOwner = id
		} else {
			offOwner = id
		}
	}
	if onOwner < 0 || offOwner < 0 {
		t.Fatalf("degenerate placement: onOwner=%d offOwner=%d", onOwner, offOwner)
	}
	cases := []struct {
		name   string
		off, n int64
	}{
		{"single-span-on-owner", onOwner*cs + 8, 32},
		{"single-span-off-owner", offOwner*cs + 8, 32},
		{"multi-span", 10, 5 * cs},
		{"hole", 6*cs + 5, 100},
		{"across-eof", 10*cs + 4, 3 * cs},
		{"past-eof", 20 * cs, 100},
	}
	for _, mode := range []string{"fd", "live", "epoch"} {
		model := live
		read := func(p []byte, off int64) (int, error) { return c.ReadAt(fd, p, off) }
		switch mode {
		case "live":
			read = func(p []byte, off int64) (int, error) { return c.ReadSnapshot(path, LiveEpoch, p, off) }
		case "epoch":
			model = snap
			read = func(p []byte, off int64) (int, error) { return c.ReadSnapshot(path, epoch, p, off) }
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("R1/%s/%s", mode, tc.name), func(t *testing.T) {
				// One RPC per daemon holding a span; the size view rides
				// along where the owner holds one — and is not asked for
				// at all below the descriptor's floor.
				want := make([]uint64, nodes)
				probe := mode != "fd" || tc.off+tc.n > int64(len(live))
				for _, s := range meta.Slices(tc.off, tc.n, cs) {
					target := c.dist.ChunkTarget(path, s.ID)
					want[target] = 1
					if target == owner {
						probe = false
					}
				}
				if probe {
					want[owner]++
				}
				before := make([]daemon.Stats, nodes)
				for i, d := range daemons {
					before[i] = d.Stats()
				}

				got := bytes.Repeat([]byte{0xEE}, int(tc.n))
				n, err := read(got, tc.off)
				wantN := max(min(int64(len(model))-tc.off, tc.n), 0)
				if int64(n) != wantN || (wantN < tc.n) != (err == io.EOF) || (err != nil && err != io.EOF) {
					t.Fatalf("read = %d, %v; want %d (EOF iff short)", n, err, wantN)
				}
				if wantN > 0 && !bytes.Equal(got[:n], model[tc.off:tc.off+wantN]) {
					t.Fatalf("wrong bytes: got %v want %v", got[:n], model[tc.off:tc.off+wantN])
				}

				served := make([]uint64, nodes)
				for i, d := range daemons {
					st := d.Stats()
					if st.StatOps != before[i].StatOps {
						t.Fatalf("daemon %d served %d stat RPCs during a read, want 0", i, st.StatOps-before[i].StatOps)
					}
					served[i] = st.ReadOps - before[i].ReadOps
				}
				for i := range want {
					if served[i] != want[i] {
						t.Fatalf("read RPCs per daemon = %v, want %v (owner %d)", served, want, owner)
					}
				}
			})
		}
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
}

// TestStatFreeReadSemantics pins the caller-visible contract the stat
// used to provide: EOF clamping, reads past EOF, holes as zeros, and
// ErrNotExist for a removed file.
func TestStatFreeReadSemantics(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 3, Config{ChunkSize: 64})
	fd, err := c.Open("/s", O_CREATE|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	if _, err := c.WriteAt(fd, []byte("hello"), 200); err != nil { // hole below 200
		t.Fatal(err)
	}
	got := make([]byte, 300)
	n, err := c.ReadAt(fd, got, 0)
	if err != io.EOF || n != 205 {
		t.Fatalf("read = %d, %v; want 205, io.EOF", n, err)
	}
	for i := 0; i < 200; i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %d, want 0", i, got[i])
		}
	}
	if string(got[200:205]) != "hello" {
		t.Fatalf("tail = %q", got[200:205])
	}
	if n, err := c.ReadAt(fd, got, 500); err != io.EOF || n != 0 {
		t.Fatalf("read past EOF = %d, %v; want 0, io.EOF", n, err)
	}
	if err := c.Remove("/s"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAt(fd, got, 0); !errors.Is(err, proto.ErrNotExist) {
		t.Fatalf("read of removed file = %v, want ErrNotExist", err)
	}
}

// evilReadServer answers OpReadChunks with per-span present-byte counts
// it chooses, standing in for a hostile or buggy daemon.
func evilReadServer(t *testing.T, countFor func(spanLen int64) int64, state uint8) *Client {
	t.Helper()
	srv := rpc.NewServer(4)
	ok := func(extra int) *rpc.Enc {
		e := rpc.NewEnc(2 + extra)
		e.U16(uint16(proto.OK))
		return e
	}
	srv.Register(proto.OpPing, func([]byte, rpc.Bulk) ([]byte, error) {
		e := ok(7)
		e.U32(0).U16(proto.ProtocolVersion).Str("")
		return e.Bytes(), nil
	})
	srv.Register(proto.OpCreate, func([]byte, rpc.Bulk) ([]byte, error) {
		return ok(0).Bytes(), nil
	})
	srv.Register(proto.OpReadChunks, func(req []byte, _ rpc.Bulk) ([]byte, error) {
		d := rpc.NewDec(req)
		_ = d.Str()
		spans := proto.DecodeSpans(d)
		e := ok(4 + 8*len(spans) + 9)
		e.U32(uint32(len(spans)))
		for _, s := range spans {
			e.I64(countFor(s.Len))
		}
		e.U8(state)
		e.I64(1 << 30) // claimed size: huge
		return e.Bytes(), nil
	})
	conn := wiretest.Dial(t, srv, wiretest.Mem, 1)
	c, err := New(Config{Conns: []rpc.Conn{conn}, ChunkSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestHostileReadCounts verifies the client refuses read replies whose
// per-span present-byte counts claim more than the span could hold (or
// are negative), and replies with an unknown size state.
func TestHostileReadCounts(t *testing.T) {
	cases := []struct {
		name  string
		count func(int64) int64
		state uint8
	}{
		{"count-over-span", func(l int64) int64 { return l + 1 }, proto.ReadSizeFile},
		{"count-negative", func(int64) int64 { return -1 }, proto.ReadSizeFile},
		{"unknown-state", func(l int64) int64 { return l }, 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := evilReadServer(t, tc.count, tc.state)
			fd, err := c.Open("/x", O_CREATE|O_RDWR)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.ReadAt(fd, make([]byte, 64), 0); !errors.Is(err, proto.ErrInval) {
				t.Fatalf("hostile reply accepted: err = %v, want ErrInval", err)
			}
		})
	}
}

// TestVerifyProtocolRejectsOldDaemon verifies the mount-time version
// guard: a daemon whose ping reply is malformed or carries a different
// protocol version is refused.
func TestVerifyProtocolRejectsOldDaemon(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply func(e *rpc.Enc)
	}{
		{"truncated reply", func(e *rpc.Enc) { e.U32(0) }},
		{"version mismatch", func(e *rpc.Enc) { e.U32(0).U16(proto.ProtocolVersion + 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := rpc.NewServer(1)
			srv.Register(proto.OpPing, func([]byte, rpc.Bulk) ([]byte, error) {
				e := rpc.NewEnc(8)
				e.U16(uint16(proto.OK))
				tc.reply(e)
				return e.Bytes(), nil
			})
			conn := wiretest.Dial(t, srv, wiretest.Mem, 1)
			c, err := New(Config{Conns: []rpc.Conn{conn}})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.VerifyProtocol(); err == nil {
				t.Fatal("mixed-generation daemon accepted")
			}
		})
	}
	// And the real daemon passes.
	c, _, _ := newCluster(t, "mem", 2, Config{})
	if err := c.VerifyProtocol(); err != nil {
		t.Fatalf("current daemon refused: %v", err)
	}
}

// TestAsyncWriteCallerReusesBuffer pins io.Writer's contract under
// write-behind, whose chunk writes go out from the caller's own buffer:
// a caller that scribbles over p the moment Write returns must still
// read back what p held during the call. Writes are 300 KiB over 64 KiB
// chunks on two daemons, so groups have several spans, adjacent or not.
// The mem carrier runs each call in Start, staging a group whose spans
// are not adjacent in one pooled region; TCP sends every group straight
// from p.
func TestAsyncWriteCallerReusesBuffer(t *testing.T) {
	for _, carrier := range []string{"mem", "tcp"} {
		t.Run(carrier, func(t *testing.T) {
			c, _, _ := newCluster(t, carrier, 2, Config{ChunkSize: 64 << 10, AsyncWrites: true})
			writeScribbleReadBack(t, c)
		})
	}
}

// writeScribbleReadBack streams writes through one write-behind
// descriptor, overwriting the buffer as soon as each Write returns, then
// checks after Fsync that the file holds the bytes as they were written.
func writeScribbleReadBack(t *testing.T, c *Client) {
	t.Helper()
	fd, err := c.Open("/reuse", O_CREATE|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	const writes, size = 12, 300 << 10
	want := make([]byte, 0, writes*size)
	p := make([]byte, size)
	for i := 0; i < writes; i++ {
		for j := range p {
			p[j] = byte(i*31 + j*7)
		}
		want = append(want, p...)
		if _, err := c.Write(fd, p); err != nil {
			t.Fatal(err)
		}
		for j := range p {
			p[j] = 0xFF
		}
	}
	if err := c.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if n, err := c.ReadAt(fd, got, 0); err != nil || n != len(want) {
		t.Fatalf("read back %d bytes, %v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the file holds bytes the caller wrote into p after Write returned")
	}
}
