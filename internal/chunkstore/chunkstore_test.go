package chunkstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/meta"
	"repro/internal/vfs"
)

// eachFS runs fn as one subtest over a store on vfs.Mem and one on
// vfs.OS, whose chunk files map: the store's contract holds on both.
func eachFS(t *testing.T, fn func(t *testing.T, s *Store)) {
	for _, backend := range []string{"mem", "os"} {
		t.Run(backend, func(t *testing.T) {
			var fs vfs.FS = vfs.NewMem()
			if backend == "os" {
				osfs, err := vfs.NewOS(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				fs = osfs
			}
			s := New(fs)
			defer s.Close()
			fn(t, s)
		})
	}
}

func TestWriteReadChunk(t *testing.T) {
	eachFS(t, func(t *testing.T, s *Store) {
		data := []byte("hello chunk world")
		if err := s.WriteChunk("/f", 0, 0, data); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, len(data))
		n, err := s.ReadChunk("/f", 0, 0, dst)
		if err != nil || n != len(data) || !bytes.Equal(dst, data) {
			t.Fatalf("ReadChunk = %d, %v, %q", n, err, dst)
		}
	})
}

func TestReadMissingChunkIsHole(t *testing.T) {
	eachFS(t, func(t *testing.T, s *Store) {
		n, err := s.ReadChunk("/f", 7, 0, make([]byte, 100))
		if err != nil || n != 0 {
			t.Fatalf("missing chunk read = %d, %v", n, err)
		}
	})
}

func TestReadPastChunkEnd(t *testing.T) {
	eachFS(t, func(t *testing.T, s *Store) {
		if err := s.WriteChunk("/f", 0, 0, []byte("abc")); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 10)
		n, err := s.ReadChunk("/f", 0, 0, dst)
		if err != nil || n != 3 {
			t.Fatalf("short read = %d, %v", n, err)
		}
		n, err = s.ReadChunk("/f", 0, 5, dst)
		if err != nil || n != 0 {
			t.Fatalf("read past end = %d, %v", n, err)
		}
	})
}

func TestWriteAtOffsetWithinChunk(t *testing.T) {
	eachFS(t, func(t *testing.T, s *Store) {
		if err := s.WriteChunk("/f", 2, 100, []byte("xyz")); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 103)
		n, err := s.ReadChunk("/f", 2, 0, dst)
		if err != nil || n != 103 {
			t.Fatalf("read = %d, %v", n, err)
		}
		if !bytes.Equal(dst[:100], make([]byte, 100)) || string(dst[100:]) != "xyz" {
			t.Fatalf("content = %q", dst)
		}
	})
}

func TestOverlappingWritesLastWins(t *testing.T) {
	eachFS(t, func(t *testing.T, s *Store) {
		if err := s.WriteChunk("/f", 0, 0, []byte("AAAAAA")); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteChunk("/f", 0, 2, []byte("BB")); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 6)
		if _, err := s.ReadChunk("/f", 0, 0, dst); err != nil {
			t.Fatal(err)
		}
		if string(dst) != "AABBAA" {
			t.Fatalf("content = %q", dst)
		}
	})
}

func TestRemoveChunks(t *testing.T) {
	eachFS(t, func(t *testing.T, s *Store) {
		for id := meta.ChunkID(0); id < 5; id++ {
			if err := s.WriteChunk("/f", id, 0, []byte("data")); err != nil {
				t.Fatal(err)
			}
		}
		ids, err := s.ChunkIDs("/f")
		if err != nil || len(ids) != 5 {
			t.Fatalf("ChunkIDs = %v, %v", ids, err)
		}
		if err := s.RemoveChunks("/f"); err != nil {
			t.Fatal(err)
		}
		ids, err = s.ChunkIDs("/f")
		if err != nil || len(ids) != 0 {
			t.Fatalf("after remove = %v, %v", ids, err)
		}
		// Idempotent.
		if err := s.RemoveChunks("/f"); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTruncateChunks(t *testing.T) {
	const cs = 100
	eachFS(t, func(t *testing.T, s *Store) {
		// 3.5 chunks of data.
		for id := meta.ChunkID(0); id < 3; id++ {
			if err := s.WriteChunk("/f", id, 0, bytes.Repeat([]byte{byte(id + 1)}, cs)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.WriteChunk("/f", 3, 0, bytes.Repeat([]byte{9}, cs/2)); err != nil {
			t.Fatal(err)
		}

		// Truncate to 250 bytes: chunks 0,1 intact, chunk 2 trimmed to 50,
		// chunk 3 gone.
		if err := s.TruncateChunks("/f", cs, 250); err != nil {
			t.Fatal(err)
		}
		ids, _ := s.ChunkIDs("/f")
		if fmt.Sprint(ids) != "[0 1 2]" {
			t.Fatalf("surviving chunks = %v", ids)
		}
		dst := make([]byte, cs)
		n, err := s.ReadChunk("/f", 2, 0, dst)
		if err != nil || n != 50 {
			t.Fatalf("trimmed chunk read = %d, %v", n, err)
		}

		// Truncate to zero removes everything.
		if err := s.TruncateChunks("/f", cs, 0); err != nil {
			t.Fatal(err)
		}
		ids, _ = s.ChunkIDs("/f")
		if len(ids) != 0 {
			t.Fatalf("chunks after truncate-to-zero: %v", ids)
		}
	})
}

func TestTruncateOnChunkBoundary(t *testing.T) {
	const cs = 64
	eachFS(t, func(t *testing.T, s *Store) {
		for id := meta.ChunkID(0); id < 4; id++ {
			if err := s.WriteChunk("/f", id, 0, bytes.Repeat([]byte{1}, cs)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.TruncateChunks("/f", cs, 2*cs); err != nil {
			t.Fatal(err)
		}
		ids, _ := s.ChunkIDs("/f")
		if fmt.Sprint(ids) != "[0 1]" {
			t.Fatalf("chunks = %v", ids)
		}
		dst := make([]byte, cs)
		if n, _ := s.ReadChunk("/f", 1, 0, dst); n != cs {
			t.Fatalf("boundary chunk trimmed: %d", n)
		}
	})
}

func TestPathIsolation(t *testing.T) {
	eachFS(t, func(t *testing.T, s *Store) {
		// Paths that could collide under a naive escape.
		paths := []string{"/a/b", "/a#2fb", "/a#b", "/a/b/c"}
		for i, p := range paths {
			if err := s.WriteChunk(p, 0, 0, []byte{byte(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		for i, p := range paths {
			dst := make([]byte, 1)
			n, err := s.ReadChunk(p, 0, 0, dst)
			if err != nil || n != 1 || dst[0] != byte(i+1) {
				t.Fatalf("path %q: %d, %v, %v", p, n, err, dst)
			}
		}
		if err := s.RemoveChunks(paths[0]); err != nil {
			t.Fatal(err)
		}
		for i, p := range paths[1:] {
			dst := make([]byte, 1)
			n, _ := s.ReadChunk(p, 0, 0, dst)
			if n != 1 || dst[0] != byte(i+2) {
				t.Fatalf("remove of %q damaged %q", paths[0], p)
			}
		}
	})
}

func TestEscapePathInjective(t *testing.T) {
	f := func(a, b string) bool {
		if a == b {
			return true
		}
		return escapePath(a) != escapePath(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentChunkWrites(t *testing.T) {
	eachFS(t, func(t *testing.T, s *Store) {
		var wg sync.WaitGroup
		const workers = 16
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					id := meta.ChunkID(w*50 + i)
					if err := s.WriteChunk("/shared", id, 0, []byte{byte(w), byte(i)}); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		ids, err := s.ChunkIDs("/shared")
		if err != nil || len(ids) != workers*50 {
			t.Fatalf("ChunkIDs = %d, %v", len(ids), err)
		}
	})
}

func TestOSBackend(t *testing.T) {
	osfs, err := vfs.NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(osfs)
	if err := s.WriteChunk("/dir/file", 1, 10, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 9)
	n, err := s.ReadChunk("/dir/file", 1, 10, dst)
	if err != nil || n != 9 || string(dst) != "persisted" {
		t.Fatalf("os read = %d, %v, %q", n, err, dst)
	}
}
