package gekkofs_test

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/gekkofs"
)

// TestAsyncWritesEndToEnd drives the public facade with the write-behind
// pipeline on: a writer streams through File.Write, Sync is the barrier,
// and a second mount observes exactly the synced bytes.
func TestAsyncWritesEndToEnd(t *testing.T) {
	cl, fs := newCluster(t, gekkofs.WithAsyncWrites())
	f, err := fs.Create("/out.dat")
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(7))
	data := make([]byte, 200_000) // ~49 chunks at 4 KiB, all daemons
	rnd.Read(data)
	for off := 0; off < len(data); off += 10_000 {
		if n, err := f.Write(data[off : off+10_000]); err != nil || n != 10_000 {
			t.Fatalf("write = %d, %v", n, err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	other, err := cl.Mount()
	if err != nil {
		t.Fatal(err)
	}
	got, err := other.ReadFile("/out.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("synced file differs: got %d bytes, want %d", len(got), len(data))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncConcurrentWriters checks the pipeline under the paper's
// file-per-process shape: many Files on one mount, each with its own
// window, closed concurrently.
func TestAsyncConcurrentWriters(t *testing.T) {
	cl, fs := newCluster(t, gekkofs.WithAsyncWrites())
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			path := "/rank" + string(rune('0'+w)) + ".out"
			f, err := fs.Create(path)
			if err != nil {
				errs[w] = err
				return
			}
			payload := bytes.Repeat([]byte{byte(w + 1)}, 3000)
			for i := 0; i < 20; i++ {
				if _, err := f.WriteAt(payload, int64(i)*3000); err != nil {
					errs[w] = err
					return
				}
			}
			errs[w] = f.Close()
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	other, err := cl.Mount()
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		path := "/rank" + string(rune('0'+w)) + ".out"
		info, err := other.Stat(path)
		if err != nil || info.Size() != 60000 {
			t.Fatalf("%s: size = %v, %v; want 60000", path, info.Size(), err)
		}
		f, err := other.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 60000)
		if n, err := f.ReadAt(got, 0); (err != nil && err != io.EOF) || n != 60000 {
			t.Fatalf("%s: read = %d, %v", path, n, err)
		}
		for i, b := range got {
			if b != byte(w+1) {
				t.Fatalf("%s: byte %d = %d, want %d", path, i, b, w+1)
			}
		}
		f.Close()
	}
}

// TestAsyncWriteCallerReusesBufferShm pins io.Writer's contract under
// write-behind on the shared-memory carrier, where a split chunk write
// returns once its bytes are copied into the segment: a caller that
// scribbles over p the moment Write returns must still read back what p
// held during the call.
func TestAsyncWriteCallerReusesBufferShm(t *testing.T) {
	_, fs := shmCluster(t, gekkofs.WithAsyncWrites())
	f, err := fs.Create("/reuse")
	if err != nil {
		t.Fatal(err)
	}
	const writes, size = 12, 30_000 // ~7 chunks of 4 KiB per write, all daemons
	want := make([]byte, 0, writes*size)
	p := make([]byte, size)
	for i := 0; i < writes; i++ {
		for j := range p {
			p[j] = byte(i*31 + j*7)
		}
		want = append(want, p...)
		if _, err := f.Write(p); err != nil {
			t.Fatal(err)
		}
		for j := range p {
			p[j] = 0xFF
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/reuse")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the file holds bytes the caller wrote into p after Write returned")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
