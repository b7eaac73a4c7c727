package chunkstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/meta"
	"repro/internal/vfs"
)

// handleFS decorates a vfs.FS for the open-chunk cache tests: it counts
// the chunk-file handles open at once (and the most ever), fails any I/O
// on a handle after its Close — which vfs.Mem alone would let pass — and
// can fail opens with an injected error.
type handleFS struct {
	vfs.FS
	open, peak atomic.Int64
	opens      atomic.Int64
	failOpens  atomic.Int64 // this many next chunk opens fail with failWith
	failWith   error
}

type trackedFile struct {
	vfs.File
	fs     *handleFS
	closed atomic.Bool
}

var errUseAfterClose = errors.New("chunk file used after Close")

func (fs *handleFS) wrap(name string, f vfs.File, err error) (vfs.File, error) {
	if err != nil || !strings.HasPrefix(name, "chunks/") {
		return f, err
	}
	fs.opens.Add(1)
	n := fs.open.Add(1)
	for {
		p := fs.peak.Load()
		if n <= p || fs.peak.CompareAndSwap(p, n) {
			break
		}
	}
	return &trackedFile{File: f, fs: fs}, nil
}

func (fs *handleFS) inject(name string) error {
	if strings.HasPrefix(name, "chunks/") && fs.failOpens.Load() > 0 && fs.failOpens.Add(-1) >= 0 {
		return fs.failWith
	}
	return nil
}

func (fs *handleFS) Open(name string) (vfs.File, error) {
	if err := fs.inject(name); err != nil {
		return nil, err
	}
	f, err := fs.FS.Open(name)
	return fs.wrap(name, f, err)
}

func (fs *handleFS) OpenOrCreate(name string) (vfs.File, error) {
	if err := fs.inject(name); err != nil {
		return nil, err
	}
	f, err := fs.FS.OpenOrCreate(name)
	return fs.wrap(name, f, err)
}

func (fs *handleFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	return fs.wrap(name, f, err)
}

func (f *trackedFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed.Load() {
		return 0, errUseAfterClose
	}
	return f.File.ReadAt(p, off)
}

func (f *trackedFile) WriteAt(p []byte, off int64) (int, error) {
	if f.closed.Load() {
		return 0, errUseAfterClose
	}
	return f.File.WriteAt(p, off)
}

func (f *trackedFile) Close() error {
	if f.closed.Swap(true) {
		return errUseAfterClose
	}
	f.fs.open.Add(-1)
	return f.File.Close()
}

// eachBackend runs fn over a store on vfs.Mem and one on vfs.OS, each
// behind a handleFS and with the cache bound forced to bound.
func eachBackend(t *testing.T, bound int, fn func(t *testing.T, s *Store, fs *handleFS)) {
	for _, backend := range []string{"mem", "os"} {
		t.Run(backend, func(t *testing.T) {
			var inner vfs.FS = vfs.NewMem()
			if backend == "os" {
				osfs, err := vfs.NewOS(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				inner = osfs
			}
			fs := &handleFS{FS: inner}
			s := New(fs)
			s.open.bound = bound
			fn(t, s, fs)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if n := fs.open.Load(); n != 0 {
				t.Fatalf("%d chunk handles still open after Store.Close", n)
			}
			if st := s.OpenStats(); st.Open != 0 {
				t.Fatalf("open-handles gauge = %d after Store.Close", st.Open)
			}
		})
	}
}

func readChunk(t *testing.T, s *Store, path string, id meta.ChunkID, n int) []byte {
	t.Helper()
	dst := make([]byte, n)
	got, err := s.ReadChunk(path, id, 0, dst)
	if err != nil {
		t.Fatal(err)
	}
	return dst[:got]
}

// TestOpenCacheConcurrentIO is the bound's own test: 8 goroutines write
// and read back 16 chunks through a cache of 2, so nearly every access
// evicts. Every byte must be exact, no I/O may reach a closed handle, and
// neither the gauge nor the real handle count may ever exceed the bound.
func TestOpenCacheConcurrentIO(t *testing.T) {
	const bound, chunks, workers, rounds = 2, 16, 8, 60
	eachBackend(t, bound, func(t *testing.T, s *Store, fs *handleFS) {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		gaugeDone := make(chan struct{})
		go func() {
			defer close(gaugeDone)
			for {
				select {
				case <-stop:
					return
				default:
					if st := s.OpenStats(); st.Open > bound {
						t.Errorf("open-handles gauge = %d, bound %d", st.Open, bound)
						return
					}
					runtime.Gosched()
				}
			}
		}()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Worker w owns chunks w and w+workers and bytes [w*8, w*8+8)
				// of shared chunk 0's tail, so every read has one right answer.
				buf := make([]byte, 64)
				for r := 0; r < rounds; r++ {
					for _, id := range []meta.ChunkID{meta.ChunkID(w), meta.ChunkID(w + workers)} {
						want := bytes.Repeat([]byte{byte(w), byte(r), byte(id)}, 20)
						if err := s.WriteChunk("/f", id, 4, want); err != nil {
							t.Error(err)
							return
						}
						n, err := s.ReadChunk("/f", id, 4, buf)
						if err != nil || !bytes.Equal(buf[:n], want) {
							t.Errorf("chunk %d round %d: read %d bytes %v, err %v", id, r, n, buf[:n], err)
							return
						}
					}
					mine := bytes.Repeat([]byte{byte(w + 1)}, 8)
					if err := s.WriteChunk("/g", 0, int64(w*8), mine); err != nil {
						t.Error(err)
						return
					}
					if n, err := s.ReadChunk("/g", 0, int64(w*8), buf[:8]); err != nil || !bytes.Equal(buf[:n], mine) {
						t.Errorf("shared chunk, worker %d: read %v, err %v", w, buf[:n], err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(stop)
		<-gaugeDone
		if p := fs.peak.Load(); p > bound {
			t.Fatalf("%d chunk handles were open at once, bound %d", p, bound)
		}
		st := s.OpenStats()
		if st.Evictions == 0 || st.Misses == 0 || st.Hits == 0 {
			t.Fatalf("stats = %+v; want hits, misses and evictions all counted", st)
		}
		if st.Misses != uint64(fs.opens.Load()) {
			t.Fatalf("%d misses but %d chunk opens", st.Misses, fs.opens.Load())
		}
	})
}

// TestOpenCacheHitIsOneDataCall: a second access to a cached chunk opens
// nothing, and a read learns the chunk's end from its own short count.
func TestOpenCacheHitIsOneDataCall(t *testing.T) {
	eachBackend(t, 2, func(t *testing.T, s *Store, fs *handleFS) {
		if err := s.WriteChunk("/f", 0, 0, []byte("abcdef")); err != nil {
			t.Fatal(err)
		}
		opens := fs.opens.Load()
		if err := s.WriteChunk("/f", 0, 2, []byte("XY")); err != nil {
			t.Fatal(err)
		}
		if got := readChunk(t, s, "/f", 0, 64); string(got) != "abXYef" {
			t.Fatalf("read %q, want %q clamped to the chunk's end", got, "abXYef")
		}
		if n, err := s.ReadChunk("/f", 0, 6, make([]byte, 8)); n != 0 || err != nil {
			t.Fatalf("read at the chunk's end = %d, %v; want 0, nil", n, err)
		}
		if d := fs.opens.Load() - opens; d != 0 {
			t.Fatalf("%d opens on accesses to a cached chunk, want 0", d)
		}
		if st := s.OpenStats(); st.Hits != 3 || st.Misses != 1 || st.Open != 1 {
			t.Fatalf("stats = %+v; want 3 hits, 1 miss, 1 open", st)
		}
	})
}

// TestOpenCacheInvalidation: a handle never outlives the file it was
// opened on. A recreated chunk shows only its new bytes, a truncated one
// clamps, and chunks past the truncation point are gone.
func TestOpenCacheInvalidation(t *testing.T) {
	eachBackend(t, 2, func(t *testing.T, s *Store, _ *handleFS) {
		old := bytes.Repeat([]byte{1}, 40)
		if err := s.WriteChunk("/f", 0, 0, old); err != nil {
			t.Fatal(err)
		}
		if err := s.RemoveChunks("/f"); err != nil {
			t.Fatal(err)
		}
		if got := readChunk(t, s, "/f", 0, 64); len(got) != 0 {
			t.Fatalf("read %d bytes of a removed chunk", len(got))
		}
		if err := s.WriteChunk("/f", 0, 0, []byte{2, 2, 2}); err != nil {
			t.Fatal(err)
		}
		if got := readChunk(t, s, "/f", 0, 64); !bytes.Equal(got, []byte{2, 2, 2}) {
			t.Fatalf("recreated chunk reads %v, want only the new bytes", got)
		}

		const cs = 32
		for id := meta.ChunkID(0); id < 3; id++ {
			if err := s.WriteChunk("/t", id, 0, bytes.Repeat([]byte{byte(id + 1)}, cs)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.TruncateChunks("/t", cs, cs+10); err != nil {
			t.Fatal(err)
		}
		if got := readChunk(t, s, "/t", 1, cs); !bytes.Equal(got, bytes.Repeat([]byte{2}, 10)) {
			t.Fatalf("trimmed chunk reads %v, want its first 10 bytes", got)
		}
		if got := readChunk(t, s, "/t", 2, cs); len(got) != 0 {
			t.Fatalf("chunk past the truncation reads %d bytes", len(got))
		}
		if got := readChunk(t, s, "/t", 0, cs); !bytes.Equal(got, bytes.Repeat([]byte{1}, cs)) {
			t.Fatalf("surviving chunk changed: %v", got)
		}
		// A write through a fresh handle lands in the trimmed file.
		if err := s.WriteChunk("/t", 1, 10, []byte{9}); err != nil {
			t.Fatal(err)
		}
		if got := readChunk(t, s, "/t", 1, cs); len(got) != 11 || got[10] != 9 {
			t.Fatalf("write after trim reads %v", got)
		}
	})
}

// TestOpenCacheShedsOnEMFILE: a miss that meets a full descriptor table
// closes one cached handle and retries once; when it has none to give,
// or the retry fails too, the error reaches the caller.
func TestOpenCacheShedsOnEMFILE(t *testing.T) {
	emfile := &os.PathError{Op: "open", Path: "chunk", Err: syscall.EMFILE}
	eachBackend(t, 4, func(t *testing.T, s *Store, fs *handleFS) {
		fs.failWith = emfile
		fs.failOpens.Store(1)
		if err := s.WriteChunk("/f", 0, 0, []byte("x")); !errors.Is(err, syscall.EMFILE) {
			t.Fatalf("write with nothing to shed = %v, want EMFILE", err)
		}
		if err := s.WriteChunk("/f", 0, 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
		fs.failOpens.Store(1)
		if err := s.WriteChunk("/f", 1, 0, []byte("y")); err != nil {
			t.Fatalf("write after shedding a handle = %v, want success", err)
		}
		if st := s.OpenStats(); st.Evictions != 1 || st.Open != 1 {
			t.Fatalf("stats = %+v; want the one cached handle shed for the new one", st)
		}
		fs.failOpens.Store(2)
		if err := s.WriteChunk("/f", 2, 0, []byte("z")); !errors.Is(err, syscall.EMFILE) {
			t.Fatalf("write failing twice = %v, want EMFILE", err)
		}
		if st := s.OpenStats(); st.Open != 0 {
			t.Fatalf("open-handles gauge = %d after a failed open, want 0", st.Open)
		}
	})
}

// TestStoreCloseLeavesNoDescriptor: after Store.Close the process holds
// no descriptor under the store's directory.
func TestStoreCloseLeavesNoDescriptor(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/self/fd is Linux's")
	}
	dir := t.TempDir()
	osfs, err := vfs.NewOS(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(osfs)
	for id := meta.ChunkID(0); id < 20; id++ {
		if err := s.WriteChunk("/f", id, 0, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	if fds := descriptorsUnder(t, dir); len(fds) != 20 {
		t.Fatalf("%d descriptors under the store before Close, want the 20 cached", len(fds))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if fds := descriptorsUnder(t, dir); len(fds) != 0 {
		t.Fatalf("descriptors left after Store.Close: %v", fds)
	}
	// The store still works, and keeps nothing open.
	if err := s.WriteChunk("/f", 0, 0, []byte("late")); err != nil {
		t.Fatal(err)
	}
	if fds := descriptorsUnder(t, dir); len(fds) != 0 {
		t.Fatalf("descriptors kept by a closed store: %v", fds)
	}
}

// descriptorsUnder lists the targets of this process's descriptors that
// lie under dir.
func descriptorsUnder(t *testing.T, dir string) []string {
	t.Helper()
	real, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	var under []string
	for _, e := range ents {
		target, err := os.Readlink("/proc/self/fd/" + e.Name())
		if err == nil && strings.HasPrefix(target, real+"/") {
			under = append(under, fmt.Sprintf("%s -> %s", e.Name(), target))
		}
	}
	return under
}

// TestOpenCacheDefaultBound: at the shipped bound, touching more chunks
// than it holds leaves exactly maxOpenChunks open.
func TestOpenCacheDefaultBound(t *testing.T) {
	fs := &handleFS{FS: vfs.NewMem()}
	s := New(fs)
	defer s.Close()
	const extra = 40
	for id := meta.ChunkID(0); id < maxOpenChunks+extra; id++ {
		if err := s.WriteChunk("/f", id, 0, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.OpenStats(); st.Open != maxOpenChunks || st.Evictions != extra {
		t.Fatalf("stats = %+v; want %d open and %d evicted", st, maxOpenChunks, extra)
	}
	if p := fs.peak.Load(); p != maxOpenChunks {
		t.Fatalf("%d chunk handles were open at once, bound %d", p, maxOpenChunks)
	}
}
