package gekkofs_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/gekkofs"
)

// skipWithoutShm skips on platforms that lack the shared-memory transport.
func skipWithoutShm(t *testing.T) {
	t.Helper()
	switch runtime.GOOS {
	case "windows", "plan9", "js", "wasip1":
		t.Skipf("shm transport unavailable on %s", runtime.GOOS)
	}
}

// shmCluster deploys with the shared-memory transport, skipping on
// platforms that lack it.
func shmCluster(t *testing.T, opts ...gekkofs.Option) (*gekkofs.Cluster, *gekkofs.FS) {
	t.Helper()
	skipWithoutShm(t)
	return newCluster(t, append([]gekkofs.Option{gekkofs.WithTransport("shm")}, opts...)...)
}

// TestFailedDeployLeaksNoConnections fails a deployment after its health
// check dialed every daemon: the stage-in source does not exist. Each shm
// connection the deployment dialed holds a reader goroutine at both ends
// and a mapped segment, so a conn left open shows as goroutines that
// never exit.
func TestFailedDeployLeaksNoConnections(t *testing.T) {
	skipWithoutShm(t)
	missing := filepath.Join(t.TempDir(), "missing")
	base := runtime.NumGoroutine()
	if cl, err := gekkofs.New(gekkofs.WithTransport("shm"), gekkofs.WithNodes(2), gekkofs.WithStageIn(missing, "/in", nil)); err == nil {
		cl.Close()
		t.Fatal("a stage-in from a missing directory deployed")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the failed deploy, %d after", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShmTransportRoundTrip drives the full stack — client, doorbell
// socket, mapped segment, daemon, chunk store — over the co-located
// shared-memory transport: cross-chunk writes, sparse regions and
// reads back through a second mount.
func TestShmTransportRoundTrip(t *testing.T) {
	cl, fs := shmCluster(t)
	data := make([]byte, 300<<10) // ~75 chunks at the 4 KiB test chunk size
	rand.New(rand.NewSource(7)).Read(data)
	if err := fs.WriteFile("/blob", data); err != nil {
		t.Fatal(err)
	}
	// A hole past EOF, then a tail: exercises zero-fill over the segment.
	f, err := fs.OpenFile("/blob", gekkofs.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	tail := []byte("tail-after-hole")
	if _, err := f.WriteAt(tail, int64(len(data))+64<<10); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := cl.Mount()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.ReadFile("/blob")
	if err != nil {
		t.Fatal(err)
	}
	want := append(append(append([]byte(nil), data...), make([]byte, 64<<10)...), tail...)
	if !bytes.Equal(got, want) {
		t.Fatalf("shm round trip corrupt: got %d bytes, want %d (content mismatch)", len(got), len(want))
	}
}

// TestShmTransportConcurrentClients runs parallel writers/readers over
// separate mounts of a shared-memory deployment — under -race this
// covers concurrent segment windows across multiple daemon connections.
func TestShmTransportConcurrentClients(t *testing.T) {
	cl, _ := shmCluster(t)
	const clients = 4
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fs, err := cl.Mount()
			if err != nil {
				errs[i] = err
				return
			}
			data := bytes.Repeat([]byte{byte(i + 1)}, 64<<10)
			path := fmt.Sprintf("/c%d", i)
			if err := fs.WriteFile(path, data); err != nil {
				errs[i] = err
				return
			}
			got, err := fs.ReadFile(path)
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(got, data) {
				errs[i] = fmt.Errorf("client %d read back corrupt data", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestUnknownTransportRejected pins the config validation: deployment
// fails loudly on a transport name nothing implements.
func TestUnknownTransportRejected(t *testing.T) {
	if _, err := gekkofs.New(gekkofs.WithTransport("rdma")); err == nil {
		t.Fatal("unknown transport accepted")
	}
}
