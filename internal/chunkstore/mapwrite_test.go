package chunkstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vfs"
)

// osStoreAt is a store on the OS file system rooted at dir.
func osStoreAt(t *testing.T, dir string) (*Store, vfs.FS) {
	t.Helper()
	fs, err := vfs.NewOS(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(fs)
	t.Cleanup(func() { s.Close() })
	return s, fs
}

// TestMappedWriteSeenEverywhere: a small in-place rewrite is a copy into
// the chunk file's mapping — the page cache — so a pread through another
// descriptor and a view taken before it both show it, and it outlives
// Store.Close and a reopen of the store.
func TestMappedWriteSeenEverywhere(t *testing.T) {
	dir := t.TempDir()
	s, fs := osStoreAt(t, dir)
	base := pattern(4*mapWriteMax, 1)
	if err := s.WriteChunk("/f", 0, 0, base); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.ViewChunk("/f", 0, 0, int64(len(base)))
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	before := s.OpenStats()
	fresh := pattern(mapWriteMax, 7)
	if err := s.WriteChunk("/f", 0, 1000, fresh); err != nil {
		t.Fatal(err)
	}
	if st := s.OpenStats(); st.WriteMappedBytes-before.WriteMappedBytes != mapWriteMax || st.WritePwriteBytes != before.WritePwriteBytes {
		t.Fatalf("stats %+v after an in-place %d-byte rewrite; want it mapped", st, mapWriteMax)
	}
	want := append([]byte(nil), base...)
	copy(want[1000:], fresh)

	if !bytes.Equal(v.B, want) {
		t.Error("a view taken before the mapped write does not show it")
	}
	v.Release()
	f, err := fs.Open(chunkFile("/f", 0))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if n, err := f.ReadAt(got, 0); n != len(want) || !bytes.Equal(got, want) {
		t.Errorf("pread through another descriptor: %d bytes, %v, equal %v", n, err, bytes.Equal(got, want))
	}
	f.Close()

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, _ := osStoreAt(t, dir)
	got = make([]byte, len(want))
	if n, err := reopened.ReadChunk("/f", 0, 0, got); err != nil || n != len(want) || !bytes.Equal(got, want) {
		t.Fatalf("read after Close and a reopen: %d bytes, %v, equal %v", n, err, bytes.Equal(got, want))
	}
}

// TestLargeAndExtendingWritesPwrite: only an in-place write of at most
// mapWriteMax bytes goes through the mapping. A write one byte over the
// cap and a write crossing the chunk's end keep pwrite — also one ending
// inside the file's last page, which a copy into the mapping would not
// fault on but would lose past the end of the file — and so does every
// write on a store whose files do not map; the counters tell the two
// paths apart, and no write faults.
func TestLargeAndExtendingWritesPwrite(t *testing.T) {
	s, _ := osStoreAt(t, t.TempDir())
	want := pattern(4*mapWriteMax, 1)
	if err := s.WriteChunk("/f", 0, 0, want); err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		name   string
		off, n int
		mapped bool
	}{
		{"in place, at the cap", 0, mapWriteMax, true},
		{"in place, one byte over the cap", 0, mapWriteMax + 1, false},
		{"extending past a page boundary", 4*mapWriteMax - 10, 100, false},
		{"extending inside the last page", 4*mapWriteMax + 50, 100, false},
		{"in place up to the new end", 4*mapWriteMax + 50, 100, true},
	} {
		before := s.OpenStats()
		data := pattern(tc.n, byte(i+2))
		if err := s.WriteChunk("/f", 0, int64(tc.off), data); err != nil {
			t.Fatal(err)
		}
		if end := tc.off + tc.n; end > len(want) {
			want = append(want, make([]byte, end-len(want))...)
		}
		copy(want[tc.off:], data)
		st := s.OpenStats()
		mapped, pwritten := st.WriteMappedBytes-before.WriteMappedBytes, st.WritePwriteBytes-before.WritePwriteBytes
		if tc.mapped && (mapped != uint64(tc.n) || pwritten != 0) || !tc.mapped && (mapped != 0 || pwritten != uint64(tc.n)) {
			t.Errorf("%s: %d bytes mapped, %d pwritten; want mapped=%v", tc.name, mapped, pwritten, tc.mapped)
		}
	}
	if st := s.OpenStats(); st.MapFaults != 0 {
		t.Errorf("map faults = %d; want none", st.MapFaults)
	}
	got := make([]byte, 5*mapWriteMax)
	if n, err := s.ReadChunk("/f", 0, 0, got); err != nil || n != len(want) || !bytes.Equal(got[:n], want) {
		t.Fatalf("chunk after the writes: %d bytes, %v, equal %v; want %d", n, err, bytes.Equal(got[:n], want), len(want))
	}

	mem := New(vfs.NewMem())
	for range 2 {
		if err := mem.WriteChunk("/f", 0, 0, pattern(100, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if st := mem.OpenStats(); st.WriteMappedBytes != 0 || st.WritePwriteBytes != 200 {
		t.Fatalf("in-memory store: %d bytes mapped, %d pwritten; want all 200 pwritten", st.WriteMappedBytes, st.WritePwriteBytes)
	}
}

// TestMappedWriteIntoShrunkFile shrinks a chunk file behind the store,
// whose open handle still knows the old size: the copy into the lost
// pages faults, the fault is recovered and counted, and the write is
// redone by pwrite, which re-extends the file. The bytes read back, and
// the next in-place write copies into the mapping again.
func TestMappedWriteIntoShrunkFile(t *testing.T) {
	dir := t.TempDir()
	s, _ := osStoreAt(t, dir)
	if err := s.WriteChunk("/f", 0, 0, pattern(4*mapWriteMax, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteChunk("/f", 0, 0, pattern(mapWriteMax, 2)); err != nil { // maps the file
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, filepath.FromSlash(chunkFile("/f", 0))), 0); err != nil {
		t.Fatal(err)
	}
	fresh := pattern(mapWriteMax, 3)
	if err := s.WriteChunk("/f", 0, mapWriteMax, fresh); err != nil {
		t.Fatalf("write into the shrunk chunk: %v", err)
	}
	if st := s.OpenStats(); st.MapFaults != 1 {
		t.Fatalf("map faults = %d; want the one copy into the lost pages", st.MapFaults)
	}
	got := make([]byte, 2*mapWriteMax)
	if n, err := s.ReadChunk("/f", 0, 0, got); err != nil || n != 2*mapWriteMax || !bytes.Equal(got[mapWriteMax:], fresh) || !bytes.Equal(got[:mapWriteMax], make([]byte, mapWriteMax)) {
		t.Fatalf("shrunk chunk after the write: %d bytes, %v; want zeros then the written bytes", n, err)
	}
	before := s.OpenStats()
	if err := s.WriteChunk("/f", 0, 0, fresh); err != nil {
		t.Fatal(err)
	}
	if st := s.OpenStats(); st.WriteMappedBytes-before.WriteMappedBytes != mapWriteMax || st.MapFaults != 1 {
		t.Fatalf("the next in-place write: stats %+v; want it mapped with no fault", st)
	}
}

// TestMappedWriteIntoShrunkFileTailIsLost pins the shrink the fault guard
// cannot see: a chunk file cut behind the store to a size inside a page.
// A small rewrite that stays in that page, past the new end, does not
// fault — the page is still backed — so the copy lands past the end of
// the file and WriteChunk reports success. Those bytes are not part of
// the file: a pread stops at the new end, and writeback never stores
// them. The write is lost, like the bytes the shrink cut off; only a
// size query per write, the syscall the mapped path exists to avoid,
// could tell.
func TestMappedWriteIntoShrunkFileTailIsLost(t *testing.T) {
	dir := t.TempDir()
	s, _ := osStoreAt(t, dir)
	if err := s.WriteChunk("/f", 0, 0, pattern(4*mapWriteMax, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteChunk("/f", 0, 0, pattern(mapWriteMax, 2)); err != nil { // maps the file
		t.Fatal(err)
	}
	const shrunk, off, n = 9000, 10000, 1000 // [off, off+n) lies in the page holding the new end
	name := filepath.Join(dir, filepath.FromSlash(chunkFile("/f", 0)))
	if err := os.Truncate(name, shrunk); err != nil {
		t.Fatal(err)
	}
	before := s.OpenStats()
	if err := s.WriteChunk("/f", 0, off, pattern(n, 3)); err != nil {
		t.Fatalf("write into the shrunk chunk's last page: %v", err)
	}
	if st := s.OpenStats(); st.WriteMappedBytes-before.WriteMappedBytes != n || st.MapFaults != before.MapFaults {
		t.Fatalf("stats %+v; want a mapped copy with no fault", st)
	}
	if read, err := s.ReadChunk("/f", 0, 0, make([]byte, 4*mapWriteMax)); err != nil || read != shrunk {
		t.Fatalf("read after the write: %d bytes, %v; want %d, the write past the end lost", read, err, shrunk)
	}
	if fi, err := os.Stat(name); err != nil || fi.Size() != shrunk {
		t.Fatalf("chunk file after the write: %v, %v; want %d bytes", fi, err, shrunk)
	}
}
