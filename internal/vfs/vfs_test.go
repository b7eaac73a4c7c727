package vfs

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// fsFactories lets every test run against both implementations.
func fsFactories(t *testing.T) map[string]FS {
	t.Helper()
	osfs, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]FS{"mem": NewMem(), "os": osfs}
}

func TestCreateWriteRead(t *testing.T) {
	for name, fs := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			f, err := fs.Create("dir/a.bin")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Append([]byte("hello ")); err != nil {
				t.Fatal(err)
			}
			off, err := f.Append([]byte("world"))
			if err != nil {
				t.Fatal(err)
			}
			if off != 6 {
				t.Fatalf("append offset = %d, want 6", off)
			}
			buf := make([]byte, 11)
			if _, err := f.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			if string(buf) != "hello world" {
				t.Fatalf("read %q", buf)
			}
			sz, err := f.Size()
			if err != nil || sz != 11 {
				t.Fatalf("size = %d, %v", sz, err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestWriteAtExtends(t *testing.T) {
	for name, fs := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			f, err := fs.Create("w.bin")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte{1, 2, 3}, 10); err != nil {
				t.Fatal(err)
			}
			sz, _ := f.Size()
			if sz != 13 {
				t.Fatalf("size = %d, want 13", sz)
			}
			buf := make([]byte, 13)
			if _, err := f.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf[:10], make([]byte, 10)) || !bytes.Equal(buf[10:], []byte{1, 2, 3}) {
				t.Fatalf("content %v", buf)
			}
		})
	}
}

func TestOpenMissing(t *testing.T) {
	for name, fs := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := fs.Open("nope"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("err = %v, want ErrNotExist", err)
			}
			if err := fs.Remove("nope"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("remove err = %v, want ErrNotExist", err)
			}
		})
	}
}

func TestRename(t *testing.T) {
	for name, fs := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			f, _ := fs.Create("old")
			if _, err := f.Append([]byte("x")); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if err := fs.Rename("old", "new"); err != nil {
				t.Fatal(err)
			}
			if fs.Exists("old") || !fs.Exists("new") {
				t.Fatal("rename did not move the file")
			}
		})
	}
}

func TestList(t *testing.T) {
	for name, fs := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			if err := fs.MkdirAll("d"); err != nil {
				t.Fatal(err)
			}
			for _, n := range []string{"d/b", "d/a", "d/c"} {
				f, err := fs.Create(n)
				if err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			sub, err := fs.Create("d/sub/x")
			if err != nil {
				t.Fatal(err)
			}
			sub.Close()
			names, err := fs.List("d")
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]bool{}
			for _, n := range names {
				got[n] = true
			}
			if !got["a"] || !got["b"] || !got["c"] || got["x"] {
				t.Fatalf("List = %v", names)
			}
			empty, err := fs.List("missing-dir")
			if err != nil || len(empty) != 0 {
				t.Fatalf("List(missing) = %v, %v", empty, err)
			}
		})
	}
}

func TestMemCrashCloneDropsUnsynced(t *testing.T) {
	m := NewMem()
	f, _ := m.Create("wal")
	if _, err := f.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append([]byte("-lost")); err != nil {
		t.Fatal(err)
	}

	crashed := m.CrashClone()
	cf, err := crashed.Open("wal")
	if err != nil {
		t.Fatal(err)
	}
	sz, _ := cf.Size()
	if sz != int64(len("durable")) {
		t.Fatalf("crashed size = %d, want %d", sz, len("durable"))
	}
	buf := make([]byte, sz)
	if _, err := cf.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "durable" {
		t.Fatalf("crashed content = %q", buf)
	}

	// The original is unaffected.
	osz, _ := f.Size()
	if osz != int64(len("durable-lost")) {
		t.Fatalf("original size changed: %d", osz)
	}

	// A killed process loses nothing it wrote.
	pf, err := m.ProcessCrashClone().Open("wal")
	if err != nil {
		t.Fatal(err)
	}
	buf = make([]byte, osz)
	if _, err := pf.ReadAt(buf, 0); err != nil || string(buf) != "durable-lost" {
		t.Fatalf("process-crash content = %q, %v", buf, err)
	}
}

func TestMemCrashCloneNeverSynced(t *testing.T) {
	m := NewMem()
	f, _ := m.Create("x")
	if _, err := f.Append([]byte("gone")); err != nil {
		t.Fatal(err)
	}
	c := m.CrashClone()
	cf, err := c.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	if sz, _ := cf.Size(); sz != 0 {
		t.Fatalf("unsynced file survived crash with %d bytes", sz)
	}
}

func TestMemTotalBytes(t *testing.T) {
	m := NewMem()
	f, _ := m.Create("a")
	if _, err := f.Append(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	g, _ := m.Create("b")
	if _, err := g.Append(make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	if m.TotalBytes() != 150 {
		t.Fatalf("TotalBytes = %d", m.TotalBytes())
	}
	if err := m.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if m.TotalBytes() != 50 {
		t.Fatalf("TotalBytes after remove = %d", m.TotalBytes())
	}
}

// TestReadAtPastEOF pins the io.ReaderAt contract both backends owe the
// chunk store, which clamps a read to the file's end by its short count
// instead of asking Size: the bytes present come back with a bare io.EOF.
func TestReadAtPastEOF(t *testing.T) {
	for name, fs := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			f, err := fs.Create("a")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte("ab"), 0); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 4)
			if n, err := f.ReadAt(buf, 1); n != 1 || err != io.EOF || buf[0] != 'b' {
				t.Fatalf("read across the end = %d, %v, %q; want 1, io.EOF, \"b\"", n, err, buf[:n])
			}
			if n, err := f.ReadAt(buf, 5); n != 0 || err != io.EOF {
				t.Fatalf("read past the end = %d, %v; want 0, io.EOF", n, err)
			}
			if n, err := f.ReadAt(buf[:2], 0); n != 2 || err != nil {
				t.Fatalf("read ending at the end = %d, %v; want 2, nil", n, err)
			}
		})
	}
}

// TestCreatingOpensMakeTheParent: Create and OpenOrCreate open first and
// make the parent directory only when that fails, so both must still work
// in a directory nobody made — and OpenOrCreate must keep what is there.
func TestCreatingOpensMakeTheParent(t *testing.T) {
	for name, fs := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			f, err := fs.OpenOrCreate("new/deep/a")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte("kept"), 0); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if f, err = fs.OpenOrCreate("new/deep/a"); err != nil {
				t.Fatal(err)
			}
			if size, err := f.Size(); err != nil || size != 4 {
				t.Fatalf("size after reopening = %d, %v; want 4", size, err)
			}
			f.Close()
			if f, err = fs.Create("other/deep/b"); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if f, err = fs.Create("new/deep/a"); err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if size, err := f.Size(); err != nil || size != 0 {
				t.Fatalf("size after Create over a file = %d, %v; want 0", size, err)
			}
		})
	}
}

// TestMemWriteAtGrowsGeometrically pins the cost of writing a file front
// to back in pieces: the buffer grows geometrically, so 256 extending
// writes reallocate a few dozen times at most, not once per write.
func TestMemWriteAtGrowsGeometrically(t *testing.T) {
	f, err := NewMem().Create("chunk")
	if err != nil {
		t.Fatal(err)
	}
	p := bytes.Repeat([]byte{7}, 2<<10)
	var off int64
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 256; i++ {
			if _, err := f.WriteAt(p, off); err != nil {
				t.Fatal(err)
			}
			off += int64(len(p))
		}
	})
	if allocs > 32 {
		t.Errorf("256 extending writes made %v allocations, want <= 32", allocs)
	}
	got := make([]byte, off)
	if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{7}, int(off))) {
		t.Fatalf("read back %d bytes, err %v: content differs", len(got), err)
	}
}
