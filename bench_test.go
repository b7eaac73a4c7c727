// Functional benchmarks of the real file system (daemons, RPC, metadata
// store, chunk store) on in-process daemons: large I/O over TCP and shm,
// a single writer's stream and read-ahead, shared-file writes, stage-in and
// stage-out. Per-op metadata and 1 MiB I/O are the benchmark's (bench/)
// workloads. The paper's 1–512-node figures are not regenerated: no
// probe on one host reaches their fabric, SSDs or process counts.
package repro

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/gekkofs"
	"repro/internal/client"
	"repro/internal/daemon"
	"repro/internal/rpc"
	"repro/internal/staging"
	"repro/internal/telemetry"
	"repro/internal/transport/wiretest"
	"repro/internal/vfs"
)

func realCluster(b *testing.B, opts ...gekkofs.Option) (*gekkofs.Cluster, *gekkofs.FS) {
	b.Helper()
	cl, err := gekkofs.New(append([]gekkofs.Option{gekkofs.WithNodes(4)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	fs, err := cl.Mount()
	if err != nil {
		b.Fatal(err)
	}
	return cl, fs
}

// benchCluster stands up nodes in-memory daemons, serves each over
// carrier — wiretest.TCPPool striped over width connections, or
// wiretest.Shm, the co-located deployment, skipped where the platform has
// none — and returns a client built from cfg.
func benchCluster(b *testing.B, carrier string, nodes, width int, cfg client.Config) *client.Client {
	b.Helper()
	cfg.Conns = make([]rpc.Conn, nodes)
	for i := range cfg.Conns {
		d, err := daemon.New(daemon.Config{ID: i, FS: vfs.NewMem(), ChunkSize: cfg.ChunkSize})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { d.Close() })
		cfg.Conns[i] = wiretest.Dial(b, d.Server(), carrier, width)
	}
	c, err := client.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.EnsureRoot(); err != nil {
		b.Fatal(err)
	}
	return c
}

// ioWorkload is the shared transport-comparison workload: 4 concurrent
// workers, each alternating one ioSize write and one ioSize read per
// iteration against its own file. Offsets rotate through the first
// 16 ops' worth of each file, which the setup primes with data so reads
// never hit holes. Running the identical workload over different
// transports makes the reported MB/s directly comparable.
func ioWorkload(b *testing.B, c *client.Client, ioSize int) {
	b.Helper()
	const workers = 4
	fds := make([]int, workers)
	prime := make([]byte, 4<<20)
	for w := range fds {
		fd, err := c.Create(fmt.Sprintf("/w%d", w))
		if err != nil {
			b.Fatal(err)
		}
		fds[w] = fd
		// Prime 64 MiB so reads hit data (in 4 MiB strokes regardless of
		// ioSize — priming at a small ioSize would be thousands of RPCs).
		for off := int64(0); off < 64<<20; off += int64(len(prime)) {
			if _, err := c.WriteAt(fd, prime, off); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.SetBytes(int64(workers) * int64(ioSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				p := make([]byte, ioSize)
				off := int64((i*workers+w)%16) * int64(ioSize)
				if _, err := c.WriteAt(fds[w], p, off); err != nil {
					b.Error(err)
					return
				}
				if _, err := c.ReadAt(fds[w], p, off); err != nil {
					b.Error(err)
				}
			}(w)
		}
		wg.Wait()
	}
}

// BenchmarkRealTCPLargeIO compares large-I/O throughput over real TCP
// sockets across transport pool sizes: 4 concurrent writers each moving
// 4 MiB per op to 2 daemons. conns-1 is the single-socket baseline the
// striped pool must match or beat (it serializes every bulk frame behind
// one write mutex and one kernel send queue per daemon).
func BenchmarkRealTCPLargeIO(b *testing.B) {
	for _, conns := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("conns-%d", conns), func(b *testing.B) {
			ioWorkload(b, benchCluster(b, wiretest.TCPPool, 2, conns, client.Config{}), 4<<20)
		})
	}
}

// BenchmarkShmLargeIO runs exactly BenchmarkRealTCPLargeIO's workload —
// 4 concurrent workers each moving 4 MiB per op to 2 daemons — over the
// co-located shared-memory transport, so the two benchmarks' MB/s are
// directly comparable. The bulk bytes cross no socket at all here: one
// segment copy per direction on the client, in-place chunk I/O on the
// daemon. The doorbell needs no striping (it carries only headers), so
// there is no conns axis.
func BenchmarkShmLargeIO(b *testing.B) {
	ioWorkload(b, benchCluster(b, wiretest.Shm, 2, 1, client.Config{}), 4<<20)
}

// BenchmarkWriteStream measures a single writer streaming 256 KiB
// writes over real TCP sockets to a 4-daemon cluster (64 KiB chunks):
// each Write fans its chunks out to every daemon in parallel and returns
// once they have stored them (and, while it extends the file, the owner
// has its size update).
func BenchmarkWriteStream(b *testing.B) {
	const (
		nodes   = 4
		ioSize  = 256 << 10
		chunkSz = 64 << 10
	)
	c := benchCluster(b, wiretest.TCPPool, nodes, 4, client.Config{ChunkSize: chunkSz})
	fd, err := c.Create("/stream")
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, ioSize)
	b.SetBytes(ioSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Bounded 16 MiB region: per-op cost independent of b.N.
		if _, err := c.WriteAt(fd, buf, int64(i%64)*ioSize); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Fsync(fd); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAsyncReadStream is the read mirror of BenchmarkWriteStream:
// a single reader streaming sequentially over
// real TCP sockets from a 4-daemon cluster, synchronous protocol versus
// the read-ahead pipeline. Reads are 16 KiB against 64 KiB chunks — the
// buffered-consumer shape (cp, grep, a parser) where the synchronous
// protocol pays one full RPC round trip per small read and is
// round-trip-bound, exactly the regime the pipeline exists for:
// speculation aggregates the stream into chunk-span fetches (one RPC
// wave per 2-chunk span instead of one per 16 KiB) and keeps a window of
// them moving while the consumer copies out of it. Every lap of the
// 16 MiB extent refetches over the wire: nothing outlives the window.
func BenchmarkAsyncReadStream(b *testing.B) {
	const (
		nodes   = 4
		ioSize  = 16 << 10
		chunkSz = 64 << 10
		laps    = 1024                 // ops per lap of the extent
		extent  = int64(laps) * ioSize // 16 MiB
	)
	for _, readAhead := range []bool{false, true} {
		name := "sync"
		if readAhead {
			name = "pipelined"
		}
		b.Run(name, func(b *testing.B) {
			c := benchCluster(b, wiretest.TCPPool, nodes, 4, client.Config{ChunkSize: chunkSz, ReadAhead: readAhead})
			fd, err := c.Create("/stream")
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, ioSize)
			for off := int64(0); off < extent; off += ioSize {
				if _, err := c.WriteAt(fd, buf, off); err != nil {
					b.Fatal(err)
				}
			}
			if err := c.Close(fd); err != nil {
				b.Fatal(err)
			}
			fd, err = c.Open("/stream", client.O_RDONLY)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(ioSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Sequential laps over the bounded extent; the wrap resets
				// the detector once per lap, exactly like a new file would.
				if _, err := c.ReadAt(fd, buf, int64(i%laps)*ioSize); err != nil && err != io.EOF {
					b.Fatal(err)
				}
			}
		})
	}
}

// stageSourceSmall writes n small patterned files under a fresh dir.
func stageSourceSmall(b *testing.B, n, size int) string {
	b.Helper()
	dir := b.TempDir()
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(i%255) + 1
	}
	for i := 0; i < n; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("s%05d.dat", i)), buf, 0o666); err != nil {
			b.Fatal(err)
		}
	}
	return dir
}

// stageMidSizes is twelve files of 1 to 4 MiB: none is larger than a
// range, so every file moves as one and a transfer overlaps its round
// trips only inside one worker's copy loop.
var stageMidSizes = []int64{1 << 20, 2 << 20, 3 << 20, 4 << 20, 1 << 20, 2 << 20, 3 << 20, 4 << 20, 1 << 20, 2 << 20, 3 << 20, 4 << 20}

// stageSourceFiles writes one random file per entry of sizes under a
// fresh dir and returns it with the sizes' sum.
func stageSourceFiles(b *testing.B, sizes []int64) (string, int64) {
	b.Helper()
	dir := b.TempDir()
	rng := rand.New(rand.NewSource(1))
	var total int64
	for i, n := range sizes {
		data := make([]byte, n)
		rng.Read(data)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("f%03d.dat", i)), data, 0o666); err != nil {
			b.Fatal(err)
		}
		total += n
	}
	return dir, total
}

// BenchmarkStageIn measures the staging engine's regimes:
//
//   - large: one 16 MiB file — four of the engine's 4 MiB ranges, one
//     per worker — over real TCP sockets into a 4-daemon cluster (64 KiB
//     chunks), the operating point of BenchmarkWriteStream.
//   - smallfiles: 1000 × 1 KiB files into a durable on-disk cluster
//     (SyncWAL) — the operating point of gkfs-bench's batched mdtest
//     create phase. Data-carrying files additionally pay one chunk-file
//     creation on the node-local FS each, which pure metadata creates
//     never do; the empty variant isolates the engine's namespace
//     ingest.
//   - midfiles: the stageMidSizes files, one range each, into the
//     cluster of large.
func BenchmarkStageIn(b *testing.B) {
	b.Run("large", func(b *testing.B) {
		src, largeBytes := stageSourceFiles(b, []int64{16 << 20})
		c := benchCluster(b, wiretest.TCPPool, 4, 4, client.Config{ChunkSize: 64 << 10})
		b.SetBytes(largeBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Restaging the same tree truncates and overwrites in place,
			// bounding daemon memory across iterations.
			rep, err := staging.StageIn(c, src, "/in", staging.Options{Workers: 4})
			if err != nil {
				b.Fatal(err)
			}
			if err := rep.Err(); err != nil {
				b.Fatal(err)
			}
		}
	})
	smallIngest := func(b *testing.B, size int) {
		const files = 1000
		src := stageSourceSmall(b, files, size)
		_, fs := realCluster(b, gekkofs.WithDataDir(b.TempDir()), gekkofs.WithSyncWAL())
		paths := make([]string, files)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := fs.StageIn(src, "/in", gekkofs.StageOptions{Workers: 8})
			if err != nil {
				b.Fatal(err)
			}
			if err := rep.Err(); err != nil {
				b.Fatal(err)
			}
			if rep.Files != files {
				b.Fatalf("moved %d files, want %d", rep.Files, files)
			}
			// Remove the tree between iterations (untimed) so every
			// iteration measures fresh ingest, not an ever-growing
			// namespace.
			b.StopTimer()
			for j := range paths {
				paths[j] = fmt.Sprintf("/in/s%05d.dat", j)
			}
			for _, err := range fs.RemoveMany(paths) {
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*files)/b.Elapsed().Seconds(), "creates/sec")
	}
	b.Run("smallfiles", func(b *testing.B) { smallIngest(b, 1<<10) })
	b.Run("empty", func(b *testing.B) { smallIngest(b, 0) })
	b.Run("midfiles", func(b *testing.B) {
		src, total := stageSourceFiles(b, stageMidSizes)
		c := benchCluster(b, wiretest.TCPPool, 4, 4, client.Config{ChunkSize: 64 << 10})
		b.SetBytes(total)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rep, err := staging.StageIn(c, src, "/in", staging.Options{Workers: 4}); err != nil || rep.Err() != nil {
				b.Fatal(err, rep.Err())
			}
		}
	})
}

// BenchmarkStageOut is the reverse direction: the cluster tree drains to
// the host, reading through the stat-free read path and recreating
// sparseness.
//
//   - large: the 16 MiB file of BenchmarkStageIn/large, staged in again
//     (untimed) before every timed stage-out, so each iteration reads
//     freshly written bytes off the wire as a job's teardown does — never
//     a client-side cache's copy of the previous iteration's read.
//   - midfiles: the stageMidSizes files, staged in again the same way.
func BenchmarkStageOut(b *testing.B) {
	b.Run("large", func(b *testing.B) {
		src, largeBytes := stageSourceFiles(b, []int64{16 << 20})
		out := b.TempDir()
		c := benchCluster(b, wiretest.TCPPool, 4, 4, client.Config{ChunkSize: 64 << 10})
		b.SetBytes(largeBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if rep, err := staging.StageIn(c, src, "/data", staging.Options{Workers: 4}); err != nil || rep.Err() != nil {
				b.Fatal(err, rep.Err())
			}
			b.StartTimer()
			rep, err := staging.StageOut(c, "/data", out, staging.Options{Workers: 4})
			if err != nil {
				b.Fatal(err)
			}
			if err := rep.Err(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("smallfiles", func(b *testing.B) {
		const files = 1000
		src := stageSourceSmall(b, files, 1<<10)
		out := b.TempDir()
		_, fs := realCluster(b)
		if rep, err := fs.StageIn(src, "/data", gekkofs.StageOptions{Workers: 8}); err != nil || rep.Err() != nil {
			b.Fatal(err, rep.Err())
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := fs.StageOut("/data", out, gekkofs.StageOptions{Workers: 8})
			if err != nil {
				b.Fatal(err)
			}
			if err := rep.Err(); err != nil {
				b.Fatal(err)
			}
			if rep.Files != files {
				b.Fatalf("moved %d files, want %d", rep.Files, files)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*files)/b.Elapsed().Seconds(), "files/sec")
	})
	b.Run("midfiles", func(b *testing.B) {
		src, total := stageSourceFiles(b, stageMidSizes)
		out := b.TempDir()
		c := benchCluster(b, wiretest.TCPPool, 4, 4, client.Config{ChunkSize: 64 << 10})
		opts := staging.Options{Workers: 4}
		b.SetBytes(total)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if rep, err := staging.StageIn(c, src, "/data", opts); err != nil || rep.Err() != nil {
				b.Fatal(err, rep.Err())
			}
			b.StartTimer()
			if rep, err := staging.StageOut(c, "/data", out, opts); err != nil || rep.Err() != nil {
				b.Fatal(err, rep.Err())
			}
		}
	})
}

// BenchmarkRealSharedFileWrite measures the size-update cache on the
// shared-file write path: 16 KiB writes that each extend the file, so
// cache-0 sends one size update per write and cache-32 one per 32. The
// file is re-created every appendRun writes with the timer stopped,
// which keeps the per-op cost independent of b.N. size-updates/op is
// the daemons' OpUpdateSize count per write: ≈ 1 for cache-0 and ≈ 1/32
// for cache-32.
func BenchmarkRealSharedFileWrite(b *testing.B) {
	const (
		ioSize    = 16 << 10
		appendRun = 2048 // writes per file: 32 MiB
	)
	for _, cacheOps := range []int{0, 32} {
		b.Run(fmt.Sprintf("cache-%d", cacheOps), func(b *testing.B) {
			var opts []gekkofs.Option
			if cacheOps > 0 {
				opts = append(opts, gekkofs.WithSizeUpdateCache(cacheOps))
			}
			cl, fs := realCluster(b, opts...)
			updates := func() (n uint64) {
				for _, s := range cl.DaemonSnapshots() {
					n += s.Hists[telemetry.DaemonOpUpdateSizeNS].Count
				}
				return n
			}
			var f *gekkofs.File
			closeFile := func() {
				if f == nil {
					return
				}
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
				if err := fs.Remove("/shared"); err != nil {
					b.Fatal(err)
				}
			}
			buf := make([]byte, ioSize)
			b.SetBytes(ioSize)
			before := updates()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%appendRun == 0 {
					b.StopTimer()
					closeFile()
					var err error
					if f, err = fs.Create("/shared"); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if _, err := f.WriteAt(buf, int64(i%appendRun)*ioSize); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			closeFile()
			b.ReportMetric(float64(updates()-before)/float64(b.N), "size-updates/op")
		})
	}
}
