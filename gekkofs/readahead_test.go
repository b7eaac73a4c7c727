package gekkofs_test

import (
	"bytes"
	"io"
	"testing"

	"repro/gekkofs"
)

// TestReadAheadFacade exercises WithReadAhead end to end: a sequential
// stream written through the facade reads back
// byte-identical through the read-ahead pipeline, twice, and a same-File
// overwrite is never masked by a prefetched span.
func TestReadAheadFacade(t *testing.T) {
	cluster, err := gekkofs.New(
		gekkofs.WithNodes(4),
		gekkofs.WithChunkSize(1<<10),
		gekkofs.WithReadAhead(),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	fs, err := cluster.Mount()
	if err != nil {
		t.Fatal(err)
	}

	want := make([]byte, 1<<10*13+345)
	for i := range want {
		want[i] = byte(i*13 + 7)
	}
	if err := fs.WriteFile("/data", want); err != nil {
		t.Fatal(err)
	}

	for pass := 0; pass < 2; pass++ {
		f, err := fs.Open("/data")
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		buf := make([]byte, 777) // straddles chunk boundaries
		for {
			n, rerr := f.Read(buf)
			got = append(got, buf[:n]...)
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				t.Fatal(rerr)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pass %d: stream mismatch (%d bytes, want %d)", pass, len(got), len(want))
		}
	}

	// Overwrite through a fresh File; no prefetched image may survive.
	f, err := fs.OpenFile("/data", gekkofs.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	patch := bytes.Repeat([]byte{0xAB}, 2048)
	if _, err := f.WriteAt(patch, 512); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if n, err := f.ReadAt(got, 0); (err != nil && err != io.EOF) || n != len(want) {
		t.Fatalf("post-overwrite read = %d, %v", n, err)
	}
	copy(want[512:], patch)
	if !bytes.Equal(got, want) {
		t.Fatal("read served pre-overwrite bytes")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadAheadSeesAnotherMountsRewrite pins that read-ahead keeps
// nothing past a descriptor: mount A reads a 2 MiB file sequentially and
// closes it, mount B rewrites it at the same size, and A's re-read
// through a fresh File must return the rewrite, not the bytes A
// prefetched the first time.
func TestReadAheadSeesAnotherMountsRewrite(t *testing.T) {
	const size = 2 << 20
	cl, a := newCluster(t, gekkofs.WithReadAhead())
	b, err := cl.Mount()
	if err != nil {
		t.Fatal(err)
	}
	old, rewrite := make([]byte, size), make([]byte, size)
	for i := range old {
		old[i], rewrite[i] = byte(i*7+1), byte(i*11+2)
	}
	if err := a.WriteFile("/ckpt", old); err != nil {
		t.Fatal(err)
	}
	read := func() []byte {
		t.Helper()
		f, err := a.Open("/ckpt")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		got, err := io.ReadAll(f) // sequential reads: the window is armed
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := read(); !bytes.Equal(got, old) {
		t.Fatal("first read differs from the file")
	}
	if err := b.WriteFile("/ckpt", rewrite); err != nil {
		t.Fatal(err)
	}
	got := read()
	if !bytes.Equal(got, rewrite) {
		stale := 0
		for i := range min(len(got), size) {
			if got[i] == old[i] && got[i] != rewrite[i] {
				stale++
			}
		}
		t.Fatalf("re-read after another mount's rewrite: %d bytes, %d of them from the old version", len(got), stale)
	}
}
