package workload

import (
	"testing"

	"repro/internal/client"
	"repro/internal/daemon"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/vfs"
)

// clusterFactory starts nodes in-process daemons with 8 KiB chunks and
// returns a factory that mounts a client on them.
func clusterFactory(t *testing.T, nodes int, sizeCacheOps int) ClientFactory {
	t.Helper()
	const chunk = 8192
	net := transport.NewMemNetwork()
	for i := 0; i < nodes; i++ {
		d, err := daemon.New(daemon.Config{ID: i, FS: vfs.NewMem(), ChunkSize: chunk})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		net.Register(i, d.Server())
	}
	mount := func() (*client.Client, error) {
		conns := make([]rpc.Conn, nodes)
		for i := range conns {
			var err error
			if conns[i], err = net.Dial(i); err != nil {
				return nil, err
			}
		}
		return client.New(client.Config{Conns: conns, ChunkSize: chunk, SizeCacheOps: sizeCacheOps})
	}
	boot, err := mount()
	if err == nil {
		err = boot.EnsureRoot()
	}
	if err != nil {
		t.Fatal(err)
	}
	return mount
}

func TestMDTestRuns(t *testing.T) {
	f := clusterFactory(t, 3, 0)
	res, err := RunMDTest(f, MDTestConfig{Dir: "/mdt", Workers: 4, FilesPerWorker: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Files != 200 {
		t.Fatalf("files = %d", res.Files)
	}
	if res.CreatesPerSec <= 0 || res.StatsPerSec <= 0 || res.RemovesPerSec <= 0 {
		t.Fatalf("rates = %+v", res)
	}
	// All files must be gone after the remove phase.
	c, _ := f()
	ents, err := c.ReadDir("/mdt")
	if err != nil || len(ents) != 0 {
		t.Fatalf("leftovers = %v, %v", ents, err)
	}
}

func TestMDTestBatchedRuns(t *testing.T) {
	f := clusterFactory(t, 3, 0)
	// Batch size deliberately not dividing the per-worker file count, so
	// the final short batch is exercised too.
	res, err := RunMDTest(f, MDTestConfig{Dir: "/mdtb", Workers: 4, FilesPerWorker: 50, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Files != 200 {
		t.Fatalf("files = %d", res.Files)
	}
	if res.CreatesPerSec <= 0 || res.StatsPerSec <= 0 || res.RemovesPerSec <= 0 {
		t.Fatalf("rates = %+v", res)
	}
	c, _ := f()
	ents, err := c.ReadDir("/mdtb")
	if err != nil || len(ents) != 0 {
		t.Fatalf("leftovers = %v, %v", ents, err)
	}
	// A second batched run over the same directory must also work (the
	// create phase sees a clean namespace again).
	if _, err := RunMDTest(f, MDTestConfig{Dir: "/mdtb", Workers: 2, FilesPerWorker: 33, BatchSize: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestMDTestValidation(t *testing.T) {
	f := clusterFactory(t, 1, 0)
	if _, err := RunMDTest(f, MDTestConfig{Dir: "/x", Workers: 0, FilesPerWorker: 5}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := RunMDTest(f, MDTestConfig{Dir: "/x", Workers: 2, FilesPerWorker: 0}); err == nil {
		t.Fatal("zero files accepted")
	}
}

func TestMDTestReusableDir(t *testing.T) {
	f := clusterFactory(t, 2, 0)
	for i := 0; i < 2; i++ { // second run reuses /again
		if _, err := RunMDTest(f, MDTestConfig{Dir: "/again", Workers: 2, FilesPerWorker: 10}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

func TestIORFilePerProcessVerified(t *testing.T) {
	f := clusterFactory(t, 3, 0)
	res, err := RunIOR(f, IORConfig{
		Dir: "/ior", Workers: 4, BlockBytes: 256 * 1024, TransferSize: 16 * 1024,
		Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteMiBps <= 0 || res.ReadMiBps <= 0 {
		t.Fatalf("rates = %+v", res)
	}
}

func TestIORSharedFileVerified(t *testing.T) {
	f := clusterFactory(t, 3, 0)
	_, err := RunIOR(f, IORConfig{
		Dir: "/iorsh", Workers: 4, BlockBytes: 128 * 1024, TransferSize: 8 * 1024,
		Shared: true, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The shared file's final size covers every worker's last stride.
	c, _ := f()
	info, err := c.Stat("/iorsh/shared.dat")
	if err != nil {
		t.Fatal(err)
	}
	want := int64(4) * 128 * 1024
	if info.Size() != want {
		t.Fatalf("shared size = %d, want %d", info.Size(), want)
	}
}

func TestIORSharedWithSizeCache(t *testing.T) {
	// The paper's §IV-B configuration: shared file plus the client-side
	// size-update cache; correctness must be unchanged.
	f := clusterFactory(t, 3, 16)
	_, err := RunIOR(f, IORConfig{
		Dir: "/iorc", Workers: 4, BlockBytes: 128 * 1024, TransferSize: 8 * 1024,
		Shared: true, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIORRandomOrderVerified(t *testing.T) {
	f := clusterFactory(t, 2, 0)
	_, err := RunIOR(f, IORConfig{
		Dir: "/iorr", Workers: 3, BlockBytes: 128 * 1024, TransferSize: 8 * 1024,
		Random: true, Verify: true, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIORValidation(t *testing.T) {
	f := clusterFactory(t, 1, 0)
	if _, err := RunIOR(f, IORConfig{Dir: "/x", Workers: 1, BlockBytes: 100, TransferSize: 64}); err == nil {
		t.Fatal("non-multiple block accepted")
	}
	if _, err := RunIOR(f, IORConfig{Dir: "/x", Workers: 0, BlockBytes: 64, TransferSize: 64}); err == nil {
		t.Fatal("zero workers accepted")
	}
}
