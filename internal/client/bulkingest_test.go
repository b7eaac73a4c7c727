package client

import (
	"bytes"
	"errors"
	"io/fs"
	"testing"

	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/transport/wiretest"
)

// The bulk-ingest primitives staging is built on: descriptor-free chunk
// writes (WritePath), batched size updates (GrowMany), and the stats
// fan-out.

func TestWritePathAndGrowMany(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 4, Config{ChunkSize: 512})
	// Three files, written without descriptors, sized in one batch.
	paths := []string{"/a", "/b", "/c"}
	data := [][]byte{
		bytes.Repeat([]byte{1}, 100),
		bytes.Repeat([]byte{2}, 1500), // multi-chunk
		nil,
	}
	for _, err := range c.CreateMany(paths) {
		if err != nil {
			t.Fatal(err)
		}
	}
	sizes := make([]int64, len(paths))
	for i, p := range paths {
		if err := c.WritePath(p, data[i], 0); err != nil {
			t.Fatal(err)
		}
		sizes[i] = int64(len(data[i]))
	}
	for i, err := range c.GrowMany(paths, sizes) {
		if err != nil {
			t.Fatalf("grow %s: %v", paths[i], err)
		}
	}
	for i, p := range paths {
		info, err := c.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != sizes[i] {
			t.Fatalf("%s size = %d, want %d", p, info.Size(), sizes[i])
		}
		if sizes[i] == 0 {
			continue
		}
		fd, err := c.Open(p, O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, sizes[i])
		if _, err := c.ReadAt(fd, buf, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data[i]) {
			t.Fatalf("%s content mismatch", p)
		}
		c.Close(fd)
	}
}

func TestGrowManyErrorAlignment(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 2, Config{ChunkSize: 512})
	if err := errors.Join(c.CreateMany([]string{"/ok"})...); err != nil {
		t.Fatal(err)
	}
	errs := c.GrowMany([]string{"relative", "/ok", "/dir-missing-is-fine"}, []int64{1, -5, 3})
	if errs[0] == nil {
		t.Fatal("relative path accepted")
	}
	if !errors.Is(errs[1], proto.ErrInval) {
		t.Fatalf("negative size = %v", errs[1])
	}
	// Size grows recreate missing records (relaxed semantics), so a
	// grow of an absent path succeeds — only shape errors fail.
	if errs[2] != nil {
		t.Fatalf("grow of fresh path = %v", errs[2])
	}
	for _, err := range c.GrowMany([]string{"/ok"}, []int64{1, 2}) {
		if err == nil {
			t.Fatal("mismatched paths/sizes accepted")
		}
	}
}

func TestDaemonStatsFanOut(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 3, Config{ChunkSize: 512})
	fd, err := c.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteAt(fd, bytes.Repeat([]byte{7}, 2048), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	sts, err := c.DaemonStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 3 {
		t.Fatalf("got %d stat sets, want 3", len(sts))
	}
	var total proto.DaemonStats
	for _, st := range sts {
		total.Add(st)
	}
	if total.Creates == 0 {
		t.Fatal("no creates counted")
	}
	if total.WriteBytes != 2048 {
		t.Fatalf("WriteBytes = %d, want 2048", total.WriteBytes)
	}
}

// TestReadDirRejectsHostileNames pins the decode-side guard: a daemon
// listing entry names that are not single path components ("..",
// slashes, empties) must poison the listing, not reach consumers that
// join names into paths (stage-out's host-tree recreation).
func TestReadDirRejectsHostileNames(t *testing.T) {
	for _, name := range []string{"..", ".", "", "a/b", "../../etc"} {
		srv := rpc.NewServer(0)
		srv.Register(proto.OpReadDir, func([]byte, rpc.Bulk) ([]byte, error) {
			e := rpc.NewEnc(64)
			e.U16(uint16(proto.OK))
			e.U32(1)
			e.Str(name).U8(0).I64(0)
			e.Str("") // scan exhausted
			return e.Bytes(), nil
		})
		conn := wiretest.Dial(t, srv, wiretest.Mem, 1)
		c, err := New(Config{Conns: []rpc.Conn{conn}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadDir("/"); err == nil {
			t.Fatalf("hostile entry name %q accepted", name)
		}
	}
}

// TestReadDirRejectsForgedEntryCount pins the wrap-proof count guard in
// readDirNode: a reply claiming more entries than its frame could
// possibly hold (at least 10 wire bytes each) must be rejected before
// the entry loop runs, while a legitimate minimal page — one one-letter
// name, which encodes in just 12 bytes after the count — still decodes.
func TestReadDirRejectsForgedEntryCount(t *testing.T) {
	dial := func(t *testing.T, h rpc.Handler) *Client {
		t.Helper()
		srv := rpc.NewServer(0)
		srv.Register(proto.OpReadDir, h)
		conn := wiretest.Dial(t, srv, wiretest.Mem, 1)
		c, err := New(Config{Conns: []rpc.Conn{conn}})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	c := dial(t, func([]byte, rpc.Bulk) ([]byte, error) {
		e := rpc.NewEnc(16)
		e.U16(uint16(proto.OK))
		e.U32(1 << 30) // a billion entries in an empty frame
		return e.Bytes(), nil
	})
	if _, err := c.ReadDir("/"); !errors.Is(err, proto.ErrInval) {
		t.Fatalf("forged entry count produced %v, want ErrInval", err)
	}

	c = dial(t, func([]byte, rpc.Bulk) ([]byte, error) {
		e := rpc.NewEnc(32)
		e.U16(uint16(proto.OK))
		e.U32(1)
		e.Str("a").U8(0).I64(7)
		e.Str("") // scan exhausted
		return e.Bytes(), nil
	})
	ents, err := c.ReadDir("/")
	if err != nil || len(ents) != 1 || ents[0].Name != "a" || ents[0].Size != 7 {
		t.Fatalf("minimal page = %+v, %v; want one entry \"a\"", ents, err)
	}
}

func TestUnsupportedOpsNamePathAndOp(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 1, Config{ChunkSize: 512})
	cases := []struct {
		err      error
		op, path string
	}{
		{c.Rename("/old", "/new"), "rename", "/old"},
		{c.Link("/t", "/l"), "link", "/t"},
		{c.Symlink("/t", "/l"), "symlink", "/l"},
		{c.Chmod("/f", 0o600), "chmod", "/f"},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, proto.ErrNotSupported) {
			t.Fatalf("%s: not ErrNotSupported: %v", tc.op, tc.err)
		}
		var pe *fs.PathError
		if !errors.As(tc.err, &pe) {
			t.Fatalf("%s: not a *fs.PathError: %v", tc.op, tc.err)
		}
		if pe.Op != tc.op {
			t.Fatalf("op = %q, want %q", pe.Op, tc.op)
		}
		if !bytes.Contains([]byte(pe.Path), []byte(tc.path)) {
			t.Fatalf("%s: path %q does not mention %q", tc.op, pe.Path, tc.path)
		}
	}
}
