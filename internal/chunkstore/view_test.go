package chunkstore

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/meta"
	"repro/internal/vfs"
)

// osStore is a store on a fresh vfs.OS directory, whose chunk files map.
func osStore(t *testing.T) *Store {
	t.Helper()
	s, _ := osStoreAt(t, t.TempDir())
	return s
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*13)
	}
	return b
}

// TestViewChunkMapsLiveBytes: a view of a live chunk is its bytes,
// clamped to the chunk's end as the handle knows it — the size fstat'd
// at open, raised by writes through the handle — and counted as mapped;
// a hole views as nothing, and a file that cannot map says so.
func TestViewChunkMapsLiveBytes(t *testing.T) {
	const cs = 16 << 10
	s := osStore(t)
	data := pattern(3000, 1)
	if err := s.WriteChunk("/f", 0, 0, data); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.ViewChunk("/f", 0, 100, cs)
	if err != nil || !ok || !bytes.Equal(v.B, data[100:]) {
		t.Fatalf("view = %d bytes, %v, %v; want the chunk's 2900 from offset 100", len(v.B), ok, err)
	}
	// A write through the cached handle raises the size the next view
	// is clamped to, with no fstat.
	more := pattern(5000, 2)
	if err := s.WriteChunk("/f", 0, 3000, more); err != nil {
		t.Fatal(err)
	}
	w, ok, err := s.ViewChunk("/f", 0, 2900, cs)
	if err != nil || !ok || !bytes.Equal(w.B, append(data[2900:], more...)) {
		t.Fatalf("view after a growing write = %d bytes, %v, %v; want 5100", len(w.B), ok, err)
	}
	v.Release()
	w.Release()
	if st := s.OpenStats(); st.MappedBytes != 2900+5100 || st.CopiedBytes != 0 {
		t.Fatalf("stats %+v; want 8000 mapped bytes, none copied", st)
	}
	for _, tc := range []struct {
		name string
		id   meta.ChunkID
		off  int64
	}{{"missing chunk", 7, 0}, {"past the end", 0, 8000}} {
		v, ok, err := s.ViewChunk("/f", tc.id, tc.off, 100)
		if err != nil || !ok || len(v.B) != 0 {
			t.Fatalf("%s: view = %d bytes, %v, %v; want an empty view", tc.name, len(v.B), ok, err)
		}
		v.Release()
	}

	mem := New(vfs.NewMem())
	if err := mem.WriteChunk("/f", 0, 0, data); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := mem.ViewChunk("/f", 0, 0, cs); err != nil || ok || v.B != nil {
		t.Fatalf("view of an in-memory chunk = %d bytes, %v, %v; want ok=false", len(v.B), ok, err)
	}
}

// TestViewOutlivesTruncateAndRemove: a view holds its handle, not its
// path lock, so a truncate and a remove of the chunk run to completion
// while it is out, and the view keeps reading the bytes it was taken
// from: the trim replaces the chunk's inode instead of shrinking it, and
// the removed inode stays mapped until the view's release closes it.
func TestViewOutlivesTruncateAndRemove(t *testing.T) {
	const cs = 16 << 10
	s := osStore(t)
	data := pattern(cs, 3)
	for id := 0; id < 2; id++ {
		if err := s.WriteChunk("/f", meta.ChunkID(id), 0, data); err != nil {
			t.Fatal(err)
		}
	}
	trimmed, ok, err := s.ViewChunk("/f", 1, 0, cs)
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	removed, ok, err := s.ViewChunk("/f", 0, 0, cs)
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	if err := s.TruncateChunks("/f", cs, cs+100); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, cs)
	if n, err := s.ReadChunk("/f", 1, 0, dst); err != nil || n != 100 {
		t.Fatalf("trimmed chunk reads %d bytes, %v; want 100", n, err)
	}
	if err := s.RemoveChunks("/f"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(trimmed.B, data) || !bytes.Equal(removed.B, data) {
		t.Fatal("a view changed under a truncate or remove of its chunk")
	}
	if st := s.OpenStats(); st.Open != 2 {
		t.Fatalf("open handles = %d with two views of dropped chunks out; want 2", st.Open)
	}
	trimmed.Release()
	removed.Release()
	if st := s.OpenStats(); st.Open != 0 {
		t.Fatalf("open handles = %d after the views were released; want 0", st.Open)
	}
}

// stallFS holds the first chunk Open after armed is set between opening
// the file and returning it, until resume is closed, and wraps that file
// so its Size reports whether it ran outside the open cache's lock.
type stallFS struct {
	vfs.FS
	armed          atomic.Bool
	opened, resume chan struct{}
	cache          *openCache
	unlockedSize   atomic.Bool
}

func (fs *stallFS) Open(name string) (vfs.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil || !fs.armed.CompareAndSwap(true, false) {
		return f, err
	}
	close(fs.opened)
	<-fs.resume
	return &lockCheckedFile{File: f, fs: fs}, nil
}

type lockCheckedFile struct {
	vfs.File
	fs *stallFS
}

func (f *lockCheckedFile) Size() (int64, error) {
	if f.fs.cache.mu.TryLock() {
		f.fs.cache.mu.Unlock()
		f.fs.unlockedSize.Store(true)
	}
	return f.File.Size()
}

// TestMissPublishedAfterEvictionKnowsLaterWrites: a miss that opened a
// chunk while another handle of it was published, written through and
// evicted still publishes the chunk's size after that write — a view
// clamped to a size read before it would cut acknowledged bytes off as
// holes. Two misses on one chunk, a cache of two handles:
// A opens the chunk and stalls; writer W misses too, publishes its
// handle and extends the chunk; a miss on another chunk evicts W's idle
// handle; A publishes. The size is read under the cache lock, where no
// write through an evicted handle is still in flight — a stall between
// an fstat taken outside it and the publish cannot be placed from the
// file system, so the test checks the lock instead.
func TestMissPublishedAfterEvictionKnowsLaterWrites(t *testing.T) {
	inner := vfs.NewMem()
	seed := New(inner)
	for id := 0; id < 2; id++ {
		if err := seed.WriteChunk("/f", meta.ChunkID(id), 0, pattern(100, 1)); err != nil {
			t.Fatal(err)
		}
	}
	fs := &stallFS{FS: inner, opened: make(chan struct{}), resume: make(chan struct{})}
	s := New(fs)
	defer s.Close()
	fs.cache = s.open
	s.open.bound = 2

	fs.armed.Store(true)
	ref := chunkRef{"/f", 0}
	type result struct {
		h   *openChunk
		err error
	}
	done := make(chan result, 1)
	go func() {
		l := s.lockFor("/f")
		l.RLock()
		defer l.RUnlock()
		h, err := s.open.acquire(ref, false)
		done <- result{h, err}
	}()
	<-fs.opened

	more := pattern(900, 2)
	if err := s.WriteChunk("/f", 0, 100, more); err != nil { // W: miss, publish, write
		t.Fatal(err)
	}
	if _, err := s.ReadChunk("/f", 1, 0, make([]byte, 10)); err != nil { // evicts W's handle
		t.Fatal(err)
	}
	if st := s.OpenStats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d; want W's handle evicted", st.Evictions)
	}
	close(fs.resume)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	defer s.open.release(r.h)
	if got := r.h.size.Load(); got != 1000 {
		t.Errorf("published size = %d; want 1000, the chunk after W's acknowledged write", got)
	}
	if fs.unlockedSize.Load() {
		t.Error("a missed chunk's size was read outside the cache lock, where a write through an evicted handle may still follow it")
	}
}
