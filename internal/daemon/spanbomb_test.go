package daemon

import (
	"errors"
	iofs "io/fs"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/vfs"
)

// TestChunkHandlersRejectSpanOverflow is the regression test for the
// span-sum overflow: span lengths near MaxInt64 wrapped proto.SpanBytes
// negative, slipped past the bulk-length guard, and panicked the daemon
// allocating the staging buffer. A ~100-byte hostile request must yield
// an error, not a dead daemon.
func TestChunkHandlersRejectSpanOverflow(t *testing.T) {
	d := newTestDaemon(t)
	hostile := [][]proto.ChunkSpan{
		// Two spans summing past MaxInt64 (negative total).
		{{ID: 0, Off: 0, Len: 1 << 62}, {ID: 1, Off: 0, Len: 1 << 62}},
		{{ID: 0, Off: 0, Len: math.MaxInt64}, {ID: 1, Off: 0, Len: 1}},
		// A single span beyond any sane transfer.
		{{ID: 0, Off: 0, Len: math.MaxInt64}},
		// Many moderate spans whose total is still absurd.
		{{ID: 0, Off: 0, Len: 100 << 20}, {ID: 1, Off: 0, Len: 100 << 20}},
	}
	for _, op := range []rpc.Op{proto.OpWriteChunks, proto.OpReadChunks} {
		for i, spans := range hostile {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("op %d case %d panicked: %v", op, i, r)
					}
				}()
				bulk := rpc.SliceBulk(make([]byte, 16))
				if _, err := d.Server().Dispatch(op, encFor(op, "/victim", spans), bulk); err == nil {
					t.Fatalf("op %d case %d: hostile spans accepted", op, i)
				}
			}()
		}
	}
	// The daemon still serves valid traffic.
	valid := encWrite("/victim", []proto.ChunkSpan{{ID: 0, Off: 0, Len: 4}})
	if _, err := d.Server().Dispatch(proto.OpWriteChunks, valid, rpc.SliceBulk([]byte("data"))); err != nil {
		t.Fatalf("valid write after hostile spans: %v", err)
	}
}

// TestChunkSpanPastChunkRejected sends chunk spans that leave their chunk
// to a daemon on the OS vfs: one starting at the chunk's end, one
// starting inside it and running one byte past, and one at 1<<40. Both
// chunk handlers must refuse each before any I/O, naming the path, and
// no chunk file may grow past the chunk size — a write at 1<<40 used to
// be acknowledged and leave a 1 TiB sparse chunk file behind.
func TestChunkSpanPastChunkRejected(t *testing.T) {
	const chunk = 256
	dir := t.TempDir()
	fs, err := vfs.NewOS(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{ID: 0, FS: fs, ChunkSize: chunk})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, s := range []proto.ChunkSpan{
		{ID: 0, Off: chunk, Len: 8},
		{ID: 1, Off: chunk - 1, Len: 2},
		{ID: 2, Off: 1 << 40, Len: 8},
	} {
		for _, op := range []rpc.Op{proto.OpWriteChunks, proto.OpReadChunks} {
			_, err := d.Server().Dispatch(op, encFor(op, "/victim", []proto.ChunkSpan{s}), rpc.SliceBulk(make([]byte, s.Len)))
			if err == nil || !strings.Contains(err.Error(), "/victim") {
				t.Errorf("%s of span %+v: err = %v, want a refusal naming the path", proto.OpName(op), s, err)
			}
		}
	}
	err = filepath.WalkDir(filepath.Join(dir, "chunks"), func(p string, e iofs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		if info.Size() > chunk {
			t.Errorf("chunk file %s is %d bytes, past the %d-byte chunk", p, info.Size(), chunk)
		}
		return nil
	})
	if err != nil && !errors.Is(err, iofs.ErrNotExist) {
		t.Fatal(err)
	}
	// A span ending exactly at the chunk's end is in bounds.
	span := []proto.ChunkSpan{{ID: 0, Off: chunk - 4, Len: 4}}
	if _, err := d.Server().Dispatch(proto.OpWriteChunks, encWrite("/victim", span), rpc.SliceBulk([]byte("tail"))); err != nil {
		t.Fatalf("write of the chunk's last 4 bytes: %v", err)
	}
}
