package client

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/daemon"
	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// raQuiesce waits until every in-flight prefetch of fd has settled, so
// daemon counters are stable before a test snapshots them.
func raQuiesce(t *testing.T, c *Client, fd int) {
	t.Helper()
	of, err := c.lookupFD(fd)
	if err != nil {
		t.Fatal(err)
	}
	if of.ra != nil {
		of.ra.wg.Wait()
	}
}

// writeFileVia creates path and stores data through its own descriptor.
func writeFileVia(t *testing.T, c *Client, path string, data []byte) {
	t.Helper()
	fd, err := c.Open(path, O_CREATE|O_WRONLY|O_TRUNC)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 0 {
		if _, err := c.WriteAt(fd, data, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
}

// patternedBytes returns n distinct-ish bytes seeded by seed.
func patternedBytes(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*7 + seed
	}
	return p
}

// TestReadAheadSequentialStream verifies the tentpole end to end on one
// descriptor: a sequential stream reads back byte-identical under
// read-ahead, and a second sequential pass over the (cache-resident)
// file moves zero read RPCs.
func TestReadAheadSequentialStream(t *testing.T) {
	c, daemons, _ := pipelineCluster(t, 4, Config{
		ChunkSize: 64, ReadAhead: true, ReadWindow: 4, CacheBytes: 1 << 20,
	})
	want := patternedBytes(64*32, 1)
	writeFileVia(t, c, "/stream", want)

	read := func(fd int) []byte {
		t.Helper()
		var got []byte
		buf := make([]byte, 150) // unaligned reads straddle block boundaries
		for {
			n, err := c.Read(fd, buf)
			got = append(got, buf[:n]...)
			if err == io.EOF {
				return got
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	fd, err := c.Open("/stream", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	if got := read(fd); !bytes.Equal(got, want) {
		t.Fatalf("first pass read %d bytes, mismatch (want %d)", len(got), len(want))
	}
	raQuiesce(t, c, fd)
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}

	// Second pass: every block is cached (prefetched or deposited by the
	// demand reads), so no read RPC may leave the client.
	before := sumStats(daemons)
	fd, err = c.Open("/stream", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	if got := read(fd); !bytes.Equal(got, want) {
		t.Fatal("second pass returned different bytes")
	}
	raQuiesce(t, c, fd)
	if d := sumStats(daemons).ReadOps - before.ReadOps; d != 0 {
		t.Fatalf("cached re-read still issued %d read RPCs, want 0", d)
	}
}

// TestReadAheadPrefetchAcrossEOF verifies speculation near and past the
// file end: the EOF arrives at the right byte, prefetches past it are
// harmless, and speculation stops at the observed end instead of
// hammering the daemons with EOF probes.
func TestReadAheadPrefetchAcrossEOF(t *testing.T) {
	c, daemons, _ := pipelineCluster(t, 3, Config{
		ChunkSize: 64, ReadAhead: true, ReadWindow: 8, CacheBytes: 1 << 20,
	})
	const size = 64*5 + 17 // EOF mid-block
	want := patternedBytes(size, 3)
	writeFileVia(t, c, "/eof", want)

	fd, err := c.Open("/eof", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	var got []byte
	buf := make([]byte, 64)
	sawEOF := false
	for i := 0; i < 64; i++ { // bounded: must EOF long before this
		n, err := c.Read(fd, buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			sawEOF = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawEOF {
		t.Fatal("sequential read loop never saw io.EOF")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %d bytes across EOF, want %d identical", len(got), len(want))
	}
	// Reads at and past EOF keep answering EOF (served by the cached EOF
	// block — no new RPC per probe).
	raQuiesce(t, c, fd)
	before := sumStats(daemons)
	for i := 0; i < 5; i++ {
		if n, err := c.ReadAt(fd, buf, size+int64(i)*64); err != io.EOF || n != 0 {
			t.Fatalf("read past EOF = %d, %v; want 0, io.EOF", n, err)
		}
	}
	if d := sumStats(daemons).ReadOps - before.ReadOps; d > 5 {
		t.Fatalf("EOF probes issued %d RPCs", d)
	}
}

// TestReadAheadWriteInvalidatesCache verifies a same-descriptor write
// drops the cached blocks it overlaps: the following read must return
// the new bytes (and provably used the cache before the write).
func TestReadAheadWriteInvalidatesCache(t *testing.T) {
	c, daemons, _ := pipelineCluster(t, 3, Config{
		ChunkSize: 64, ReadAhead: true, ReadWindow: 4, CacheBytes: 1 << 20,
	})
	v1 := patternedBytes(64*8, 5)
	writeFileVia(t, c, "/inv", v1)

	fd, err := c.Open("/inv", O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	got := make([]byte, len(v1))
	// Two sequential passes warm the cache; the second must be served
	// from it (the precondition that makes the invalidation assertion
	// meaningful).
	for i := 0; i < 2; i++ {
		if _, err := c.ReadAt(fd, got, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	}
	raQuiesce(t, c, fd)
	before := sumStats(daemons)
	if _, err := c.ReadAt(fd, got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if d := sumStats(daemons).ReadOps - before.ReadOps; d != 0 {
		t.Fatalf("warm read still issued %d RPCs, want 0 (cache not serving)", d)
	}

	// Overwrite the middle, then read it back: no stale bytes.
	v2 := patternedBytes(64*3, 9)
	if _, err := c.WriteAt(fd, v2, 64*2); err != nil {
		t.Fatal(err)
	}
	if n, err := c.ReadAt(fd, got, 0); (err != nil && err != io.EOF) || n != len(v1) {
		t.Fatalf("post-write read = %d, %v", n, err)
	}
	want := append([]byte(nil), v1...)
	copy(want[64*2:], v2)
	if !bytes.Equal(got, want) {
		t.Fatal("read served stale cached bytes after same-descriptor write")
	}
}

// TestReadAheadTruncateDropsCache verifies Truncate discards prefetched
// and cached spans: reads after the truncate see the new EOF, never the
// cached pre-truncate tail.
func TestReadAheadTruncateDropsCache(t *testing.T) {
	c, daemons, _ := pipelineCluster(t, 3, Config{
		ChunkSize: 64, ReadAhead: true, ReadWindow: 8, CacheBytes: 1 << 20,
	})
	data := patternedBytes(64*16, 2)
	writeFileVia(t, c, "/trunc", data)

	fd, err := c.Open("/trunc", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	got := make([]byte, len(data))
	if _, err := c.ReadAt(fd, got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	raQuiesce(t, c, fd)
	if n := c.cache.Load().entries(); n == 0 {
		t.Fatal("precondition: nothing cached before the truncate")
	}

	const newSize = 64 * 3
	if err := c.Truncate("/trunc", newSize); err != nil {
		t.Fatal(err)
	}
	n, err := c.ReadAt(fd, got, 0)
	if err != io.EOF || n != newSize {
		t.Fatalf("post-truncate read = %d, %v; want %d, io.EOF (cached tail resurrected)", n, err, newSize)
	}
	if !bytes.Equal(got[:n], data[:newSize]) {
		t.Fatal("post-truncate prefix mismatch")
	}
	if n, err := c.ReadAt(fd, got, newSize+5); err != io.EOF || n != 0 {
		t.Fatalf("read past new EOF = %d, %v; want 0, io.EOF", n, err)
	}
	_ = daemons
}

// TestReadAheadRandomAccessNoSpeculation verifies the detector: a
// random access pattern must never issue speculative fetches — only the
// demanded blocks may enter the cache.
func TestReadAheadRandomAccessNoSpeculation(t *testing.T) {
	c, _, _ := pipelineCluster(t, 3, Config{
		ChunkSize: 64, ReadAhead: true, ReadWindow: 8, CacheBytes: 1 << 20,
	})
	const chunks = 64
	writeFileVia(t, c, "/rand", patternedBytes(64*chunks, 4))

	fd, err := c.Open("/rand", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	// Chunk-aligned single-block reads at strided, never-adjacent
	// offsets: each is a cache miss and a full-block deposit, and none
	// may arm speculation.
	offs := []int64{40, 3, 57, 21, 9, 33, 48, 12}
	buf := make([]byte, 64)
	for _, o := range offs {
		if _, err := c.ReadAt(fd, buf, o*64); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	}
	raQuiesce(t, c, fd)
	if n := c.cache.Load().entries(); n != len(offs) {
		t.Fatalf("cache holds %d blocks after %d random reads, want exactly the demanded blocks (speculation ran)", n, len(offs))
	}
}

// TestReadAheadRandomSmallReadsExactRange pins the no-amplification
// contract: a non-sequential miss smaller than a chunk pays an
// exact-range wire read — a random 100-byte reader on a cache-enabled
// client must not be turned into a chunk-sized fetcher.
func TestReadAheadRandomSmallReadsExactRange(t *testing.T) {
	c, daemons, _ := pipelineCluster(t, 3, Config{
		ChunkSize: 4096, ReadAhead: true, CacheBytes: 1 << 20,
	})
	writeFileVia(t, c, "/tiny", patternedBytes(4096*16, 29))
	fd, err := c.Open("/tiny", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	before := sumStatsAll(daemons)
	buf := make([]byte, 100)
	offs := []int64{5*4096 + 7, 2*4096 + 1, 9 * 4096, 12*4096 + 500}
	for _, o := range offs {
		if n, err := c.ReadAt(fd, buf, o); err != nil || n != len(buf) {
			t.Fatalf("read at %d = %d, %v", o, n, err)
		}
	}
	raQuiesce(t, c, fd)
	if d := sumStatsAll(daemons).ReadBytes - before.ReadBytes; d != uint64(len(offs)*len(buf)) {
		t.Fatalf("random 100-byte reads requested %d wire bytes, want %d (amplified)", d, len(offs)*len(buf))
	}
}

// TestReadAheadCrashMidPrefetchSurfacesOnce crashes a daemon while a
// prefetch window is in flight over real TCP. A failed prefetch must
// never latch anywhere: the reads that need the dead daemon's chunks
// surface a transport error (each read exactly one), reads served
// entirely by surviving daemons keep working, and Close stays clean.
func TestReadAheadCrashMidPrefetchSurfacesOnce(t *testing.T) {
	c, daemons := tcpPipelineCluster(t, 3, Config{
		ChunkSize: 64, ReadAhead: true, ReadWindow: 4, CacheBytes: 1 << 20,
	})
	const chunks = 48
	data := patternedBytes(64*chunks, 6)
	writeFileVia(t, c, "/crash", data)

	fd, err := c.Open("/crash", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the detector so prefetches are in flight, then crash node 2.
	buf := make([]byte, 64)
	for i := 0; i < 4; i++ {
		if _, err := c.ReadAt(fd, buf, int64(i)*64); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	}
	daemons[2].Close()

	failed, succeeded := 0, 0
	for i := 4; i < chunks; i++ {
		n, err := c.ReadAt(fd, buf, int64(i)*64)
		switch {
		case err == nil || err == io.EOF:
			succeeded++
			if !bytes.Equal(buf[:n], data[int64(i)*64:int64(i)*64+int64(n)]) {
				t.Fatalf("chunk %d: wrong bytes after crash", i)
			}
		default:
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no read surfaced the dead daemon (placement degenerate?)")
	}
	raQuiesce(t, c, fd)
	// The failure lives in the reads that needed the dead daemon, not in
	// a latch: the barrier path must be clean.
	if err := c.Fsync(fd); err != nil {
		t.Fatalf("Fsync after prefetch failures: %v", err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatalf("Close after prefetch failures: %v", err)
	}
}

// TestReadAheadNeverServesStaleBytes is the -race workhorse: interleaved
// write/read rounds on one descriptor (write-behind AND read-ahead both
// on) must always read back the latest round's bytes, regardless of how
// prefetches, invalidations and window drains interleave underneath.
func TestReadAheadNeverServesStaleBytes(t *testing.T) {
	c, _, _ := pipelineCluster(t, 4, Config{
		ChunkSize: 64, AsyncWrites: true, WriteWindow: 4,
		ReadAhead: true, ReadWindow: 4, CacheBytes: 1 << 20,
	})
	fd, err := c.Open("/stale", O_CREATE|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	const span = 64 * 6
	got := make([]byte, span)
	for round := 0; round < 24; round++ {
		want := patternedBytes(span, byte(round))
		if _, err := c.WriteAt(fd, want, 0); err != nil {
			t.Fatal(err)
		}
		// Sequential re-reads arm speculation; every one must see this
		// round's bytes.
		for pass := 0; pass < 3; pass++ {
			for off := int64(0); off < span; off += 128 {
				n, err := c.ReadAt(fd, got[off:off+128], off)
				if (err != nil && err != io.EOF) || n != 128 {
					t.Fatalf("round %d: read = %d, %v", round, n, err)
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d pass %d: stale bytes served from cache", round, pass)
			}
		}
	}
}

// TestReadSurfacesLatchedError pins the satellite fix: a read on a
// descriptor whose write-behind window latched a failure returns that
// failure (exactly once) instead of silently handing over bytes whose
// producing writes already failed.
func TestReadSurfacesLatchedError(t *testing.T) {
	c, daemons := tcpPipelineCluster(t, 3, Config{ChunkSize: 64, AsyncWrites: true, WriteWindow: 8})
	path := ""
	for _, cand := range []string{"/r0", "/r1", "/r2", "/r3", "/r4"} {
		if c.cfg.Dist.MetaTarget(cand) == 0 {
			path = cand
			break
		}
	}
	if path == "" {
		t.Fatal("no candidate path with metadata on node 0")
	}
	fd, err := c.Open(path, O_CREATE|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64*32) // spans all daemons
	hits := 0
	for id := int64(0); id < 32; id++ {
		if c.cfg.Dist.ChunkTarget(path, meta.ChunkID(id)) == 2 {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no chunk lands on node 2; widen the range")
	}
	daemons[2].Close()
	if _, err := c.WriteAt(fd, payload, 0); err != nil {
		t.Fatalf("async write returned synchronously: %v", err)
	}
	// The read drains the window and must surface the latched failure.
	buf := make([]byte, 64)
	if _, err := c.Read(fd, buf); err == nil {
		t.Fatal("read after latched async-write failure returned nil")
	}
	// Exactly once: the barrier after the surfacing read is clean.
	if err := c.Fsync(fd); err != nil {
		t.Fatalf("Fsync re-surfaced the latched error: %v", err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatalf("Close after surfaced error: %v", err)
	}
}

// TestReadAheadConcurrentReaders hammers one read-ahead descriptor and
// several plain ones from concurrent goroutines (run under -race): the
// shared chunk cache must stay coherent while entries are inserted,
// served, evicted and invalidated concurrently.
func TestReadAheadConcurrentReaders(t *testing.T) {
	c, _, _ := pipelineCluster(t, 4, Config{
		ChunkSize: 64, ReadAhead: true, ReadWindow: 4,
		CacheBytes: 4096, // tiny: constant eviction churn
	})
	const span = 64 * 64
	want := patternedBytes(span, 8)
	writeFileVia(t, c, "/conc", want)

	var wg sync.WaitGroup
	errs := make([]error, 6)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fd, err := c.Open("/conc", O_RDONLY)
			if err != nil {
				errs[g] = err
				return
			}
			defer c.Close(fd)
			buf := make([]byte, 200)
			for pass := 0; pass < 4; pass++ {
				for off := int64(0); off < span; off += int64(len(buf)) {
					n, err := c.ReadAt(fd, buf, off)
					if err != nil && err != io.EOF {
						errs[g] = err
						return
					}
					if !bytes.Equal(buf[:n], want[off:off+int64(n)]) {
						errs[g] = fmt.Errorf("goroutine %d: stale bytes at %d", g, off)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenReadAheadForcesPipeline verifies the per-descriptor override
// staging relies on: OpenReadAhead speculates (and caches) on a client
// configured without ReadAhead or CacheBytes, while plain descriptors
// of the same client stay cache-less.
func TestOpenReadAheadForcesPipeline(t *testing.T) {
	c, daemons, _ := pipelineCluster(t, 3, Config{ChunkSize: 64})
	if c.cache.Load() != nil {
		t.Fatal("default client grew a chunk cache")
	}
	want := patternedBytes(64*16, 11)
	writeFileVia(t, c, "/force", want)

	fd, err := c.OpenReadAhead("/force", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	got := make([]byte, 128)
	var all []byte
	for {
		n, err := c.Read(fd, got)
		all = append(all, got[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(all, want) {
		t.Fatal("OpenReadAhead stream mismatch")
	}
	raQuiesce(t, c, fd)
	if c.cache.Load() == nil || c.cache.Load().entries() == 0 {
		t.Fatal("OpenReadAhead descriptor never cached a block")
	}
	// And the re-read is wire-free.
	before := sumStats(daemons)
	buf := make([]byte, len(want))
	if n, err := c.ReadAt(fd, buf, 0); (err != nil && err != io.EOF) || n != len(want) {
		t.Fatalf("re-read = %d, %v", n, err)
	}
	raQuiesce(t, c, fd)
	if d := sumStats(daemons).ReadOps - before.ReadOps; d != 0 {
		t.Fatalf("re-read issued %d RPCs, want 0", d)
	}
}

// TestReadAheadRemoveDropsCache verifies cached blocks die with the
// file: a new file under the same name must never read the old one's
// cached bytes.
func TestReadAheadRemoveDropsCache(t *testing.T) {
	c, _, _ := pipelineCluster(t, 3, Config{
		ChunkSize: 64, ReadAhead: true, ReadWindow: 4, CacheBytes: 1 << 20,
	})
	old := patternedBytes(64*4, 13)
	writeFileVia(t, c, "/reborn", old)
	fd, err := c.Open("/reborn", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(old))
	if _, err := c.ReadAt(fd, buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	raQuiesce(t, c, fd)
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("/reborn"); err != nil {
		t.Fatal(err)
	}
	fresh := patternedBytes(64*2, 17)
	writeFileVia(t, c, "/reborn", fresh)
	fd, err = c.Open("/reborn", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	n, err := c.ReadAt(fd, buf, 0)
	if err != io.EOF || n != len(fresh) {
		t.Fatalf("reborn read = %d, %v; want %d, io.EOF", n, err, len(fresh))
	}
	if !bytes.Equal(buf[:n], fresh) {
		t.Fatal("reborn file served the removed file's cached bytes")
	}
}

// TestReadAheadStatsCounters verifies the protocol-4 observability: read
// RPCs report the spans they carried and the bulk bytes they actually
// pushed, and hole-heavy reads push (almost) nothing.
func TestReadAheadStatsCounters(t *testing.T) {
	c, daemons, _ := pipelineCluster(t, 2, Config{ChunkSize: 64})
	// 4 chunks of data, then a hole to 16 chunks via truncate-up.
	writeFileVia(t, c, "/holes", patternedBytes(64*4, 19))
	gfd, err := c.Open("/holes", O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.GrowSize(gfd, 64*16); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(gfd); err != nil {
		t.Fatal(err)
	}

	fd, err := c.Open("/holes", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	before := sumStatsAll(daemons)
	buf := make([]byte, 64*16)
	if n, err := c.ReadAt(fd, buf, 0); err != nil && err != io.EOF || n != 64*16 {
		t.Fatalf("read = %d, %v", n, err)
	}
	after := sumStatsAll(daemons)
	if d := after.ReadSpans - before.ReadSpans; d != 16 {
		t.Fatalf("ReadSpans delta = %d, want 16", d)
	}
	if d := after.ReadBytes - before.ReadBytes; d != 64*16 {
		t.Fatalf("ReadBytes delta = %d, want %d", d, 64*16)
	}
	// Only the 4 data chunks have present bytes; the hole's 12 chunks
	// push nothing.
	if d := after.ReadBytesPushed - before.ReadBytesPushed; d != 64*4 {
		t.Fatalf("ReadBytesPushed delta = %d, want %d", d, 64*4)
	}
}

// TestReadAheadGrowPastCachedEOF pins two regressions around cached EOF
// blocks and size growth: (1) a deferred GrowSize under write-behind
// overrules a cached EOF via the descriptor's pending size — the read
// must fall back to the wire and return the hole's zeros, never a
// short (0, nil) that would livelock a read loop; (2) GrowMany drops
// EOF-bearing blocks exactly like the single-path size update, so a
// grown file never serves a spurious EOF from this client's own cache.
func TestReadAheadGrowPastCachedEOF(t *testing.T) {
	const size = 100
	t.Run("deferred-growsize", func(t *testing.T) {
		c, _, _ := pipelineCluster(t, 3, Config{
			ChunkSize: 64, AsyncWrites: true, ReadAhead: true, CacheBytes: 1 << 20,
		})
		fd, err := c.Open("/grow", O_CREATE|O_RDWR)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close(fd)
		if _, err := c.WriteAt(fd, patternedBytes(size, 21), 0); err != nil {
			t.Fatal(err)
		}
		if err := c.Fsync(fd); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		// Read to EOF so the cache holds an EOF-marked block.
		if n, err := c.ReadAt(fd, buf, size-10); err != io.EOF || n != 10 {
			t.Fatalf("pre-grow read = %d, %v; want 10, io.EOF", n, err)
		}
		// Deferred grow: the candidate stays local until the barrier.
		if err := c.GrowSize(fd, size+50); err != nil {
			t.Fatal(err)
		}
		n, err := c.ReadAt(fd, buf, size)
		if err != io.EOF || n != 50 {
			t.Fatalf("post-grow read = %d, %v; want 50, io.EOF (stale cached EOF served)", n, err)
		}
		for i := 0; i < n; i++ {
			if buf[i] != 0 {
				t.Fatalf("hole byte %d = %d, want 0", i, buf[i])
			}
		}
	})
	t.Run("growmany", func(t *testing.T) {
		c, _, _ := pipelineCluster(t, 3, Config{
			ChunkSize: 64, ReadAhead: true, CacheBytes: 1 << 20,
		})
		writeFileVia(t, c, "/gm", patternedBytes(size, 23))
		fd, err := c.Open("/gm", O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close(fd)
		buf := make([]byte, 256)
		if n, err := c.ReadAt(fd, buf, 0); err != io.EOF || n != size {
			t.Fatalf("pre-grow read = %d, %v; want %d, io.EOF", n, err, size)
		}
		for _, err := range c.GrowMany([]string{"/gm"}, []int64{size + 60}) {
			if err != nil {
				t.Fatal(err)
			}
		}
		n, err := c.ReadAt(fd, buf, size)
		if err != io.EOF || n != 60 {
			t.Fatalf("post-GrowMany read = %d, %v; want 60, io.EOF (stale cached EOF served)", n, err)
		}
	})
}

// sumStatsAll aggregates every counter (sumStats in pipeline_test only
// carries the ones those tests need).
func sumStatsAll(daemons []*daemon.Daemon) proto.DaemonStats {
	var total proto.DaemonStats
	for _, d := range daemons {
		total.Add(d.Stats())
	}
	return total
}

// scatterTap sits between a client and one daemon's connection and
// serves multi-window reads itself — staging through plain memory, never
// the pool — after recording each call's scatter list. gate, when set,
// holds every such call until it is closed, entered signalling arrival.
type scatterTap struct {
	rpc.Conn
	mu      sync.Mutex
	lists   [][][]byte
	drawn   atomic.Int64 // pool bytes drawn since the read that arms the prefetch
	gate    chan struct{}
	entered chan struct{}
}

func (c *scatterTap) CallScatter(op rpc.Op, payload []byte, dest [][]byte, _ rpc.Trace) ([]byte, error) {
	c.mu.Lock()
	c.lists = append(c.lists, append([][]byte(nil), dest...))
	c.mu.Unlock()
	if c.gate != nil {
		c.entered <- struct{}{}
		<-c.gate
	}
	n := 0
	for _, w := range dest {
		n += len(w)
	}
	bulk := make([]byte, n)
	resp, err := c.Conn.Call(op, payload, bulk, rpc.BulkOut)
	rpc.Scatter(dest, bulk)
	return resp, err
}

// armPrefetch writes a 16-chunk file on a one-daemon cluster whose
// connection runs through tap, and issues the two half-chunk reads that
// arm speculation: the first deposits block 0 whole, the second is a
// pure cache hit — it draws nothing from the pool itself — and launches
// exactly one span fetch, blocks 1-4, in one RPC. It returns after the
// second read; the fetch may still be in flight.
func armPrefetch(t *testing.T, cs int64, tap *scatterTap) (c *Client, fd int, want []byte) {
	t.Helper()
	c, _, _ = pipelineCluster(t, 1, Config{ChunkSize: cs, ReadAhead: true, ReadWindow: 1, CacheBytes: 64 * cs})
	want = patternedBytes(int(16*cs), 3)
	writeFileVia(t, c, "/f", want)
	tap.Conn = c.cfg.Conns[0]
	c.cfg.Conns[0] = tap
	fd, err := c.Open("/f", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	half := make([]byte, cs/2)
	for i := 0; i < 2; i++ {
		if i == 1 {
			tap.mu.Lock()
			tap.lists = nil
			tap.mu.Unlock()
			tap.drawn.Store(0)
		}
		if n, err := c.Read(fd, half); n != len(half) || err != nil {
			t.Fatalf("read %d = %d, %v", i, n, err)
		}
	}
	return c, fd, want
}

// TestPrefetchLandsInCacheBlocks is the cost pin of the read path's
// landing: the slice the transport is handed for block i of a 4-block
// prefetch is the slice the cache entry for block i ends up holding —
// nothing stands between the wire and the cache — the run is one RPC,
// and it draws exactly the four blocks from the pool, no scratch.
func TestPrefetchLandsInCacheBlocks(t *testing.T) {
	const cs = 8 << 10
	tap := &scatterTap{}
	defer rpc.ObserveDraws(func(n int) { tap.drawn.Add(int64(n)) })()
	c, fd, want := armPrefetch(t, cs, tap)
	raQuiesce(t, c, fd)
	// Armed by a cache hit, the prefetch is all that drew since then.
	if got := tap.drawn.Load(); got != 4*cs {
		t.Fatalf("prefetch of 4 blocks drew %d pool bytes, want %d", got, 4*cs)
	}
	if len(tap.lists) != 1 || len(tap.lists[0]) != 4 {
		t.Fatalf("prefetch issued scatter lists %d, want one of 4 windows", len(tap.lists))
	}
	cc := c.cache.Load()
	for i, w := range tap.lists[0] {
		off := int64(1+i) * cs
		ent := cc.acquire("/f", off)
		if ent == nil {
			t.Fatalf("block %d not cached after the prefetch", 1+i)
		}
		if len(w) != cs || len(ent.data) != cs || &ent.data[0] != &w[0] {
			t.Fatalf("block %d: the cache holds %p (%d bytes), the transport filled %p (%d bytes)", 1+i, ent.data, len(ent.data), w, len(w))
		}
		if !bytes.Equal(ent.data, want[off:off+cs]) {
			t.Fatalf("block %d: wrong bytes in the adopted buffer", 1+i)
		}
		cc.release(ent)
	}
}

// TestPrefetchInvalidatedMidFlightRecyclesOnce invalidates a prefetch's
// blocks while its RPC is still out: the fetch settles on entries that
// are already gone, so each adopted buffer must return to the pool —
// exactly once: a buffer put twice would be handed to two owners — and
// the reads that wanted those blocks must see the bytes written since.
func TestPrefetchInvalidatedMidFlightRecyclesOnce(t *testing.T) {
	const cs = 8 << 10
	tap := &scatterTap{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	c, fd, want := armPrefetch(t, cs, tap)
	<-tap.entered
	fresh := patternedBytes(4*cs, 9)
	if err := c.WritePath("/f", fresh, cs); err != nil { // lands, then invalidates blocks 1-4
		t.Fatal(err)
	}
	copy(want[cs:], fresh)
	close(tap.gate)
	raQuiesce(t, c, fd)
	tap.gate = nil

	live := map[*byte]bool{}
	for i := 0; i < 64; i++ {
		b := rpc.GetBuf(cs)
		if live[&b[0]] {
			t.Fatal("the pool handed out one buffer twice: a dropped prefetch block was recycled more than once")
		}
		live[&b[0]] = true
	}
	got := make([]byte, 5*cs)
	if n, err := c.ReadAt(fd, got, 0); n != len(got) || err != nil {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, want[:5*cs]) {
		t.Fatal("read after a mid-flight invalidation returned stale or foreign bytes")
	}
}
