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

// narrowWindow caps fd's read-ahead window at n regions: the white-box
// seam for tests that need a shallower window than the default. A window
// of n regions reaches n-1 fetches past the reader. Call it before the
// descriptor's first I/O.
func narrowWindow(t *testing.T, c *Client, fd, n int) {
	t.Helper()
	of, err := c.lookupFD(fd)
	if err != nil {
		t.Fatal(err)
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

// TestStatFreeReadRPCCount is the acceptance assertion for the stat-free
// read protocol and the table test of the one read executor behind it:
// {through the writing descriptor, without one (ReadPath)} ×
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
	// The first image: 6 data chunks, a 4-chunk hole, a 20-byte tail.
	first := make([]byte, 10*cs+20)
	copy(first, bytes.Repeat([]byte{3}, 6*cs))
	copy(first[10*cs:], bytes.Repeat([]byte{4}, 20))
	for _, off := range []int64{0, 10 * cs} {
		end := min(off+6*cs, int64(len(first)))
		if _, err := c.WriteAt(fd, first[off:end], off); err != nil {
			t.Fatal(err)
		}
	}
	// The live image diverges: the head is overwritten, the file grows.
	live := make([]byte, 12*cs)
	copy(live, first)
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
	for _, mode := range []string{"fd", "live"} {
		model := live
		read := func(p []byte, off int64) (int, error) { return c.ReadAt(fd, p, off) }
		if mode == "live" {
			read = func(p []byte, off int64) (int, error) { return c.ReadPath(path, p, off) }
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
