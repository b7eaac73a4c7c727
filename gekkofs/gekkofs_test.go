package gekkofs_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/gekkofs"
)

// newCluster spins an in-process deployment with small chunks so tests
// cross chunk boundaries constantly.
func newCluster(t *testing.T, opts ...gekkofs.Option) (*gekkofs.Cluster, *gekkofs.FS) {
	t.Helper()
	base := []gekkofs.Option{gekkofs.WithNodes(4), gekkofs.WithChunkSize(4096)}
	cl, err := gekkofs.New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	fs, err := cl.Mount()
	if err != nil {
		t.Fatal(err)
	}
	return cl, fs
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	_, fs := newCluster(t)
	data := []byte("hello gekkofs")
	f, err := fs.Create("/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write(data); err != nil || n != len(data) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := fs.ReadFile("/hello.txt")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	info, err := fs.Stat("/hello.txt")
	if err != nil || info.Size() != int64(len(data)) || info.IsDir() {
		t.Fatalf("Stat = %+v, %v", info, err)
	}
}

func TestLargeFileAcrossChunksAndNodes(t *testing.T) {
	cl, fs := newCluster(t)
	// 1 MiB over 4 KiB chunks = 256 chunks spread over 4 daemons.
	data := make([]byte, 1<<20)
	rnd := rand.New(rand.NewSource(1))
	rnd.Read(data)

	if err := fs.WriteFile("/big.bin", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if sha256.Sum256(got) != sha256.Sum256(data) {
		t.Fatal("content mismatch after chunked round trip")
	}

	// Wide striping: every daemon must have received chunk writes.
	for i, st := range cl.DaemonStats() {
		if st.WriteBytes == 0 {
			t.Errorf("daemon %d received no chunk data; striping broken", i)
		}
	}
}

func TestWriteAtReadAtRandomOffsets(t *testing.T) {
	_, fs := newCluster(t)
	const size = 128 * 1024
	model := make([]byte, size)
	f, err := fs.Create("/rand.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rnd := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		off := rnd.Int63n(size - 1)
		l := rnd.Intn(int(size-off)) + 1
		chunk := make([]byte, l)
		rnd.Read(chunk)
		copy(model[off:], chunk)
		if _, err := f.WriteAt(chunk, off); err != nil {
			t.Fatalf("WriteAt(%d,%d): %v", off, l, err)
		}
	}
	got := make([]byte, size)
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Fatal("random-offset writes diverged from model")
	}
}

func TestSparseFileReadsZeros(t *testing.T) {
	_, fs := newCluster(t)
	f, err := fs.Create("/sparse")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("end"), 100000); err != nil {
		t.Fatal(err)
	}
	info, _ := f.Stat()
	if info.Size() != 100003 {
		t.Fatalf("size = %d", info.Size())
	}
	buf := make([]byte, 50)
	if _, err := f.ReadAt(buf, 5000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 50)) {
		t.Fatalf("hole not zero: %v", buf)
	}
}

func TestReadPastEOF(t *testing.T) {
	_, fs := newCluster(t)
	if err := fs.WriteFile("/short", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/short")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 0)
	if n != 3 || err != io.EOF {
		t.Fatalf("ReadAt = %d, %v; want 3, EOF", n, err)
	}
	n, err = f.ReadAt(buf, 99)
	if n != 0 || err != io.EOF {
		t.Fatalf("ReadAt past EOF = %d, %v", n, err)
	}
}

func TestSeekAndSequentialRead(t *testing.T) {
	_, fs := newCluster(t)
	if err := fs.WriteFile("/seek", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/seek")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if pos, err := f.Seek(4, io.SeekStart); err != nil || pos != 4 {
		t.Fatalf("Seek = %d, %v", pos, err)
	}
	buf := make([]byte, 3)
	if _, err := f.Read(buf); err != nil || string(buf) != "456" {
		t.Fatalf("Read = %q, %v", buf, err)
	}
	if pos, err := f.Seek(-2, io.SeekCurrent); err != nil || pos != 5 {
		t.Fatalf("SeekCurrent = %d, %v", pos, err)
	}
	if pos, err := f.Seek(-1, io.SeekEnd); err != nil || pos != 9 {
		t.Fatalf("SeekEnd = %d, %v", pos, err)
	}
	if _, err := f.Seek(-100, io.SeekStart); !errors.Is(err, gekkofs.ErrInval) {
		t.Fatalf("negative seek err = %v", err)
	}
}

func TestOpenFlags(t *testing.T) {
	_, fs := newCluster(t)
	if err := fs.WriteFile("/flags", []byte("data")); err != nil {
		t.Fatal(err)
	}
	// O_EXCL on existing file fails.
	if _, err := fs.OpenFile("/flags", gekkofs.O_WRONLY|gekkofs.O_CREATE|gekkofs.O_EXCL); !errors.Is(err, gekkofs.ErrExist) {
		t.Fatalf("O_EXCL err = %v", err)
	}
	// O_TRUNC empties.
	f, err := fs.OpenFile("/flags", gekkofs.O_WRONLY|gekkofs.O_TRUNC)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if info, _ := fs.Stat("/flags"); info.Size() != 0 {
		t.Fatalf("O_TRUNC left size %d", info.Size())
	}
	// Open of a missing file fails.
	if _, err := fs.Open("/missing"); !errors.Is(err, gekkofs.ErrNotExist) {
		t.Fatalf("missing open err = %v", err)
	}
	// Writing through a read-only descriptor fails.
	ro, err := fs.Open("/flags")
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if _, err := ro.Write([]byte("x")); !errors.Is(err, gekkofs.ErrInval) {
		t.Fatalf("write on O_RDONLY err = %v", err)
	}
}

func TestAppend(t *testing.T) {
	_, fs := newCluster(t)
	if err := fs.WriteFile("/log", []byte("first\n")); err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenFile("/log", gekkofs.O_WRONLY|gekkofs.O_APPEND)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("second\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("third\n")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := fs.ReadFile("/log")
	if err != nil || string(got) != "first\nsecond\nthird\n" {
		t.Fatalf("appended = %q, %v", got, err)
	}
}

func TestMkdirReadDirRemove(t *testing.T) {
	_, fs := newCluster(t)
	if err := fs.Mkdir("/exp"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/exp/run1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/exp/run1/out.%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Deep descendants must not leak into parent listings.
	ents, err := fs.ReadDir("/exp")
	if err != nil || len(ents) != 1 || ents[0].Name != "run1" || !ents[0].IsDir {
		t.Fatalf("ReadDir(/exp) = %v, %v", ents, err)
	}
	ents, err = fs.ReadDir("/exp/run1")
	if err != nil || len(ents) != 10 {
		t.Fatalf("ReadDir(run1) = %d entries, %v", len(ents), err)
	}
	// Sorted by name.
	for i := 1; i < len(ents); i++ {
		if ents[i-1].Name >= ents[i].Name {
			t.Fatalf("unsorted listing: %q before %q", ents[i-1].Name, ents[i].Name)
		}
	}
	// Non-empty dir refuses removal.
	if err := fs.Remove("/exp/run1"); !errors.Is(err, gekkofs.ErrNotEmpty) {
		t.Fatalf("Remove(non-empty) = %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := fs.Remove(fmt.Sprintf("/exp/run1/out.%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Remove("/exp/run1"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/exp/run1"); !errors.Is(err, gekkofs.ErrNotExist) {
		t.Fatalf("removed dir still stats: %v", err)
	}
}

func TestMkdirAll(t *testing.T) {
	_, fs := newCluster(t)
	if err := fs.MkdirAll("/a/b/c/d"); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat("/a/b/c/d")
	if err != nil || !info.IsDir() {
		t.Fatalf("Stat = %+v, %v", info, err)
	}
	// Idempotent.
	if err := fs.MkdirAll("/a/b/c/d"); err != nil {
		t.Fatal(err)
	}
	// Mkdir under a missing parent fails (MkdirAll is the remedy).
	if err := fs.Mkdir("/x/y"); !errors.Is(err, gekkofs.ErrNotExist) {
		t.Fatalf("Mkdir without parent = %v", err)
	}
	// Mkdir under a file fails.
	if err := fs.WriteFile("/a/file", nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/a/file/sub"); !errors.Is(err, gekkofs.ErrNotDir) {
		t.Fatalf("Mkdir under file = %v", err)
	}
}

func TestRemoveFileCollectsChunks(t *testing.T) {
	_, fs := newCluster(t)
	data := make([]byte, 64*1024)
	if err := fs.WriteFile("/bulky", data); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/bulky"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/bulky"); !errors.Is(err, gekkofs.ErrNotExist) {
		t.Fatal("file still exists")
	}
	// Re-creating the same path must read back empty, not resurrect old
	// chunks.
	if err := fs.WriteFile("/bulky", []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/bulky")
	if err != nil || string(got) != "new" {
		t.Fatalf("recreated file = %q, %v", got, err)
	}
}

func TestTruncate(t *testing.T) {
	_, fs := newCluster(t)
	data := bytes.Repeat([]byte("abcdefgh"), 4096) // 32 KiB
	if err := fs.WriteFile("/trunc", data); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate("/trunc", 10000); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/trunc")
	if err != nil || len(got) != 10000 || !bytes.Equal(got, data[:10000]) {
		t.Fatalf("after shrink: %d bytes, %v", len(got), err)
	}
	// Extending truncate exposes zeros.
	if err := fs.Truncate("/trunc", 12000); err != nil {
		t.Fatal(err)
	}
	got, err = fs.ReadFile("/trunc")
	if err != nil || len(got) != 12000 {
		t.Fatalf("after grow: %d bytes, %v", len(got), err)
	}
	if !bytes.Equal(got[10000:], make([]byte, 2000)) {
		t.Fatal("extended region not zero")
	}
	// Truncating a directory fails.
	if err := fs.Mkdir("/tdir"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate("/tdir", 0); !errors.Is(err, gekkofs.ErrIsDir) {
		t.Fatalf("truncate dir = %v", err)
	}
}

func TestUnsupportedOperations(t *testing.T) {
	_, fs := newCluster(t)
	if err := fs.WriteFile("/f", nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/f", "/g"); !errors.Is(err, gekkofs.ErrNotSupported) {
		t.Fatalf("Rename = %v", err)
	}
	if err := fs.Link("/f", "/g"); !errors.Is(err, gekkofs.ErrNotSupported) {
		t.Fatalf("Link = %v", err)
	}
	if err := fs.Symlink("/f", "/g"); !errors.Is(err, gekkofs.ErrNotSupported) {
		t.Fatalf("Symlink = %v", err)
	}
	if err := fs.Chmod("/f", 0o600); !errors.Is(err, gekkofs.ErrNotSupported) {
		t.Fatalf("Chmod = %v", err)
	}
}

func TestBadFDAfterClose(t *testing.T) {
	_, fs := newCluster(t)
	f, err := fs.Create("/x")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("y")); !errors.Is(err, gekkofs.ErrBadFD) {
		t.Fatalf("write after close = %v", err)
	}
	if err := f.Close(); !errors.Is(err, gekkofs.ErrBadFD) {
		t.Fatalf("double close = %v", err)
	}
}

// TestConcurrentDisjointWriters exercises the consistency the paper does
// promise: operations on a specific file are strongly consistent, and
// writers to non-overlapping regions need no locks.
func TestConcurrentDisjointWriters(t *testing.T) {
	_, fs := newCluster(t)
	const workers = 8
	const span = 32 * 1024
	f, err := fs.Create("/parallel")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			block := bytes.Repeat([]byte{byte(w + 1)}, span)
			if _, err := f.WriteAt(block, int64(w)*span); err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	info, err := fs.Stat("/parallel")
	if err != nil || info.Size() != workers*span {
		t.Fatalf("size = %d, %v; want %d", info.Size(), err, workers*span)
	}
	got, err := fs.ReadFile("/parallel")
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		region := got[w*span : (w+1)*span]
		if !bytes.Equal(region, bytes.Repeat([]byte{byte(w + 1)}, span)) {
			t.Fatalf("worker %d region corrupted", w)
		}
	}
}

// TestConcurrentExclusiveCreate verifies create-exclusive is atomic
// across clients: exactly one O_EXCL create of the same path wins.
func TestConcurrentExclusiveCreate(t *testing.T) {
	cl, _ := newCluster(t)
	const racers = 12
	var wg sync.WaitGroup
	wins := make(chan int, racers)
	for r := 0; r < racers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fs, err := cl.Mount()
			if err != nil {
				t.Error(err)
				return
			}
			f, err := fs.OpenFile("/contested", gekkofs.O_WRONLY|gekkofs.O_CREATE|gekkofs.O_EXCL)
			if err == nil {
				wins <- r
				f.Close()
			} else if !errors.Is(err, gekkofs.ErrExist) {
				t.Errorf("racer %d unexpected error: %v", r, err)
			}
		}(r)
	}
	wg.Wait()
	close(wins)
	count := 0
	for range wins {
		count++
	}
	if count != 1 {
		t.Fatalf("%d racers won O_EXCL create, want exactly 1", count)
	}
}

// TestSharedFileSizeConvergence checks the size grow's maximum rule: many
// clients writing disjoint regions of one shared file leave its size at
// the maximum end offset, regardless of update interleaving.
func TestSharedFileSizeConvergence(t *testing.T) {
	cl, fs := newCluster(t)
	if err := fs.WriteFile("/shared", nil); err != nil {
		t.Fatal(err)
	}
	const writers = 6
	const blocks = 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cfs, err := cl.Mount()
			if err != nil {
				t.Error(err)
				return
			}
			f, err := cfs.OpenFile("/shared", gekkofs.O_WRONLY)
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			for b := 0; b < blocks; b++ {
				// Interleaved strided blocks, like an N-to-1 checkpoint.
				off := int64(b*writers+w) * 512
				if _, err := f.WriteAt(bytes.Repeat([]byte{byte(w + 1)}, 512), off); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	info, err := fs.Stat("/shared")
	want := int64(writers*blocks) * 512
	if err != nil || info.Size() != want {
		t.Fatalf("shared size = %d, %v; want %d", info.Size(), err, want)
	}
}

// TestSizeUpdateCache verifies the paper's §IV-B client cache: size
// updates are deferred while writing and flushed on Sync/Close.
func TestSizeUpdateCache(t *testing.T) {
	cl, err := gekkofs.New(gekkofs.WithNodes(2), gekkofs.WithChunkSize(4096),
		gekkofs.WithSizeUpdateCache(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fs, err := cl.Mount()
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("/cached")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := f.Write(make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	// Another mount's view of the size lags until the writer syncs.
	other, err := cl.Mount()
	if err != nil {
		t.Fatal(err)
	}
	before, err := other.Stat("/cached")
	if err != nil {
		t.Fatal(err)
	}
	if before.Size() != 0 {
		t.Fatalf("size visible before flush: %d", before.Size())
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	after, err := other.Stat("/cached")
	if err != nil || after.Size() != 50*1024 {
		t.Fatalf("size after flush = %d, %v", after.Size(), err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSizeCacheFlushesEveryN(t *testing.T) {
	cl, err := gekkofs.New(gekkofs.WithNodes(1), gekkofs.WithChunkSize(4096),
		gekkofs.WithSizeUpdateCache(10))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fs, err := cl.Mount()
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("/n")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 10; i++ { // exactly one cache window
		if _, err := f.Write(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	info, err := fs.Stat("/n")
	if err != nil || info.Size() != 1000 {
		t.Fatalf("size after N writes = %d, %v; want flushed 1000", info.Size(), err)
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	data := bytes.Repeat([]byte("persist!"), 2048) // 16 KiB

	cl, err := gekkofs.New(gekkofs.WithNodes(3), gekkofs.WithChunkSize(4096),
		gekkofs.WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := cl.Mount()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/results/run1"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/results/run1/out", data); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same node-local directories (a campaign resuming).
	cl2, err := gekkofs.New(gekkofs.WithNodes(3), gekkofs.WithChunkSize(4096),
		gekkofs.WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	fs2, err := cl2.Mount()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.ReadFile("/results/run1/out")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("after restart: %d bytes, %v", len(got), err)
	}
	ents, err := fs2.ReadDir("/results")
	if err != nil || len(ents) != 1 || ents[0].Name != "run1" {
		t.Fatalf("ReadDir after restart = %v, %v", ents, err)
	}
}

func TestManySmallFilesMetadataWorkload(t *testing.T) {
	// The mdtest pattern: many zero-byte files in one directory.
	cl, fs := newCluster(t)
	if err := fs.Mkdir("/mdtest"); err != nil {
		t.Fatal(err)
	}
	const files = 500
	for i := 0; i < files; i++ {
		f, err := fs.OpenFile(fmt.Sprintf("/mdtest/f.%d", i), gekkofs.O_WRONLY|gekkofs.O_CREATE|gekkofs.O_EXCL)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	ents, err := fs.ReadDir("/mdtest")
	if err != nil || len(ents) != files {
		t.Fatalf("listed %d, %v", len(ents), err)
	}
	// Metadata must be spread over all daemons, not funneled to one.
	stats := cl.DaemonStats()
	for i, st := range stats {
		if st.Creates == 0 {
			t.Errorf("daemon %d created nothing; metadata distribution broken", i)
		}
	}
	for i := 0; i < files; i++ {
		if _, err := fs.Stat(fmt.Sprintf("/mdtest/f.%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < files; i++ {
		if err := fs.Remove(fmt.Sprintf("/mdtest/f.%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	ents, err = fs.ReadDir("/mdtest")
	if err != nil || len(ents) != 0 {
		t.Fatalf("after removal: %d entries, %v", len(ents), err)
	}
}

func TestDeployTimeRecorded(t *testing.T) {
	cl, _ := newCluster(t)
	if cl.DeployTime() <= 0 {
		t.Fatal("deploy time not recorded")
	}
	if cl.Nodes() != 4 || cl.ChunkSize() != 4096 {
		t.Fatalf("cluster shape = %d nodes, %d chunk", cl.Nodes(), cl.ChunkSize())
	}
}

// TestDefaultChunkSize checks the shape without options: one daemon, the
// paper's 512 KiB chunks.
func TestDefaultChunkSize(t *testing.T) {
	def, err := gekkofs.New()
	if err != nil {
		t.Fatal(err)
	}
	defer def.Close()
	if def.Nodes() != 1 || def.ChunkSize() != 512*1024 {
		t.Fatalf("default shape = %d nodes, %d chunk", def.Nodes(), def.ChunkSize())
	}
}

func TestClusterValidation(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := gekkofs.New(gekkofs.WithNodes(n)); err == nil {
			t.Fatalf("%d nodes accepted", n)
		}
	}
}

// TestClusterLifecycle deploys, mounts, creates a file, reads the
// daemons' counters and tears down — twice, since Close is idempotent.
func TestClusterLifecycle(t *testing.T) {
	cl, err := gekkofs.New(gekkofs.WithNodes(3), gekkofs.WithChunkSize(2048))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := cl.Mount()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/x", nil); err != nil {
		t.Fatal(err)
	}
	stats := cl.DaemonStats()
	if len(stats) != 3 {
		t.Fatalf("stats for %d daemons", len(stats))
	}
	var creates uint64
	for _, st := range stats {
		creates += st.Creates
	}
	if creates < 2 { // root + /x
		t.Fatalf("creates = %d", creates)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestEmptyFileAndZeroLengthIO(t *testing.T) {
	_, fs := newCluster(t)
	if err := fs.WriteFile("/empty", nil); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat("/empty")
	if err != nil || info.Size() != 0 {
		t.Fatalf("Stat = %+v, %v", info, err)
	}
	got, err := fs.ReadFile("/empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("ReadFile = %v, %v", got, err)
	}
	f, err := fs.OpenFile("/empty", gekkofs.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, err := f.Write(nil); n != 0 || err != nil {
		t.Fatalf("zero write = %d, %v", n, err)
	}
	if n, err := f.Read(nil); n != 0 || err != nil {
		t.Fatalf("zero read = %d, %v", n, err)
	}
}
