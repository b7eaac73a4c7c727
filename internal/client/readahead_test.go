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
	"repro/internal/transport/wiretest"
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
		of.ra.w.Drain()
	}
}

// windowFetches returns where the fetches in view in fd's read-ahead
// window start, in window order.
func windowFetches(t *testing.T, c *Client, fd int) []int64 {
	t.Helper()
	var offs []int64
	for _, f := range liveFetches(t, c, fd) {
		offs = append(offs, f.Off)
	}
	return offs
}

// liveFetches returns the slots in view in fd's read-ahead window.
func liveFetches(t *testing.T, c *Client, fd int) []*Slot {
	t.Helper()
	of, err := c.lookupFD(fd)
	if err != nil {
		t.Fatal(err)
	}
	w := of.ra.w
	w.mu.Lock()
	defer w.mu.Unlock()
	var live []*Slot
	for _, s := range w.slots {
		if !s.dropped {
			live = append(live, s)
		}
	}
	return live
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

// TestReadAheadSequentialStream verifies the tentpole end to end: a
// sequential stream reads back byte-identical under read-ahead, and so
// does a second sequential pass through a fresh descriptor.
func TestReadAheadSequentialStream(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 4, Config{ChunkSize: 64, ReadAhead: true})
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

	fd, err = c.Open("/stream", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	if got := read(fd); !bytes.Equal(got, want) {
		t.Fatal("second pass returned different bytes")
	}
}

// TestReadAheadPrefetchAcrossEOF verifies speculation near and past the
// file end: the EOF arrives at the right byte, a fetch reaching past it
// is harmless, and speculation stops at the end instead of hammering the
// daemons with fetches past it.
func TestReadAheadPrefetchAcrossEOF(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 3, Config{ChunkSize: 64, ReadAhead: true})
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
	// Armed at 128, one 4-chunk fetch covered the rest of the file, and
	// none was read past: the window holds every fetch the stream issued.
	raQuiesce(t, c, fd)
	if offs := windowFetches(t, c, fd); fmt.Sprint(offs) != "[128]" {
		t.Fatalf("the stream issued fetches at %v, want [128]: speculation ran past the end", offs)
	}
	// Reads at and past EOF keep answering EOF and arm nothing.
	for i := 0; i < 5; i++ {
		if n, err := c.ReadAt(fd, buf, size+int64(i)*64); err != io.EOF || n != 0 {
			t.Fatalf("read past EOF = %d, %v; want 0, io.EOF", n, err)
		}
		if offs := windowFetches(t, c, fd); len(offs) > 0 && offs[len(offs)-1] >= size {
			t.Fatalf("a read past EOF armed fetches at %v", offs)
		}
	}
}

// TestReadAheadWriteInvalidatesCache verifies a same-descriptor write
// drops the prefetched spans it overlaps: the sequential read that goes
// on into them must return the new bytes (and provably had them
// prefetched before the write).
func TestReadAheadWriteInvalidatesCache(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 3, Config{ChunkSize: 64, ReadAhead: true})
	v1 := patternedBytes(64*8, 5)
	writeFileVia(t, c, "/inv", v1)

	fd, err := c.Open("/inv", O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	got := make([]byte, len(v1))
	// Two sequential reads arm the window over the rest of the file (the
	// precondition that makes the drop assertion meaningful).
	for off := int64(0); off < 128; off += 64 {
		if _, err := c.ReadAt(fd, got[off:off+64], off); err != nil {
			t.Fatal(err)
		}
	}
	raQuiesce(t, c, fd)
	if len(windowFetches(t, c, fd)) == 0 {
		t.Fatal("precondition: nothing prefetched before the write")
	}

	// Overwrite the middle, then read on into it: no stale bytes.
	v2 := patternedBytes(64*3, 9)
	if _, err := c.WriteAt(fd, v2, 64*2); err != nil {
		t.Fatal(err)
	}
	if n, err := c.ReadAt(fd, got[128:], 128); (err != nil && err != io.EOF) || n != len(v1)-128 {
		t.Fatalf("post-write read = %d, %v", n, err)
	}
	want := append([]byte(nil), v1...)
	copy(want[64*2:], v2)
	if !bytes.Equal(got, want) {
		t.Fatal("read served stale prefetched bytes after same-descriptor write")
	}
}

// TestReadAheadTruncateDropsCache verifies Truncate discards prefetched
// spans: reads after the truncate see the new EOF, never the prefetched
// pre-truncate tail.
func TestReadAheadTruncateDropsCache(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 3, Config{ChunkSize: 64, ReadAhead: true})
	data := patternedBytes(64*16, 2)
	writeFileVia(t, c, "/trunc", data)

	fd, err := c.Open("/trunc", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	got := make([]byte, len(data))
	for off := int64(0); off < 128; off += 64 {
		if _, err := c.ReadAt(fd, got[off:off+64], off); err != nil {
			t.Fatal(err)
		}
	}
	raQuiesce(t, c, fd)
	if len(windowFetches(t, c, fd)) == 0 {
		t.Fatal("precondition: nothing prefetched before the truncate")
	}

	const newSize = 64 * 3
	if err := c.Truncate("/trunc", newSize); err != nil {
		t.Fatal(err)
	}
	// The sequential read on would be served by the window if it had
	// survived.
	if n, err := c.ReadAt(fd, got[128:], 128); err != io.EOF || n != newSize-128 {
		t.Fatalf("post-truncate sequential read = %d, %v; want %d, io.EOF (prefetched tail resurrected)", n, err, newSize-128)
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
}

// TestReadAheadRandomAccessNoSpeculation verifies the detector: a
// random access pattern must never issue speculative fetches.
func TestReadAheadRandomAccessNoSpeculation(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 3, Config{ChunkSize: 64, ReadAhead: true})
	const chunks = 64
	writeFileVia(t, c, "/rand", patternedBytes(64*chunks, 4))

	fd, err := c.Open("/rand", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	// Chunk-aligned single-block reads at strided, never-adjacent
	// offsets: none may arm speculation.
	offs := []int64{40, 3, 57, 21, 9, 33, 48, 12}
	buf := make([]byte, 64)
	for _, o := range offs {
		if _, err := c.ReadAt(fd, buf, o*64); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if offs := windowFetches(t, c, fd); len(offs) != 0 {
			t.Fatalf("a random read at chunk %d left fetches at %v (speculation ran)", o, offs)
		}
	}
}

// TestReadAheadRandomSmallReadsExactRange pins the no-amplification
// contract: a non-sequential read smaller than a chunk pays an
// exact-range wire read — a random 100-byte reader on a read-ahead
// client must not be turned into a chunk-sized fetcher.
func TestReadAheadRandomSmallReadsExactRange(t *testing.T) {
	c, daemons, _ := newCluster(t, "mem", 3, Config{ChunkSize: 4096, ReadAhead: true})
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
	c, daemons, _ := newCluster(t, "tcp", 3, Config{ChunkSize: 64, ReadAhead: true})
	const chunks = 48
	data := patternedBytes(64*chunks, 6)
	writeFileVia(t, c, "/crash", data)

	fd, err := c.Open("/crash", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	narrowWindow(t, c, fd, 5) // four fetches past the reader
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
	c, _, _ := newCluster(t, "mem", 4, Config{ChunkSize: 64, AsyncWrites: true, ReadAhead: true})
	fd, err := c.Open("/stale", O_CREATE|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	narrowWindow(t, c, fd, 4)
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
				t.Fatalf("round %d pass %d: stale prefetched bytes served", round, pass)
			}
		}
	}
}

// TestReadSurfacesLatchedError pins the satellite fix: a read on a
// descriptor whose write-behind window latched a failure returns that
// failure (exactly once) instead of silently handing over bytes whose
// producing writes already failed.
func TestReadSurfacesLatchedError(t *testing.T) {
	c, daemons, _ := newCluster(t, "tcp", 3, Config{ChunkSize: 64, AsyncWrites: true})
	path := ""
	for _, cand := range []string{"/r0", "/r1", "/r2", "/r3", "/r4"} {
		if c.dist.MetaTarget(cand) == 0 {
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
		if c.dist.ChunkTarget(path, meta.ChunkID(id)) == 2 {
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

// TestReadAheadConcurrentReaders hammers six read-ahead descriptors of
// one file from concurrent goroutines (run under -race): every window
// must stay coherent while its fetches land, are served, recycled and
// dropped by wrap-around reads.
func TestReadAheadConcurrentReaders(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 4, Config{ChunkSize: 64, ReadAhead: true})
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

// TestReadAheadWritesRaceReads drops fetches from a writer's goroutine
// while three readers stream through their windows (run under -race):
// the writer rewrites the file with its own bytes, so every read stays
// checkable while drops race fetches landing and reads copying out.
func TestReadAheadWritesRaceReads(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 4, Config{ChunkSize: 64, ReadAhead: true})
	const span = 64 * 64
	want := patternedBytes(span, 12)
	writeFileVia(t, c, "/race", want)

	stop := make(chan struct{})
	written := make(chan error, 1)
	go func() {
		for off := 0; ; off = (off + 5*64) % span {
			select {
			case <-stop:
				written <- nil
				return
			default:
			}
			if err := c.WritePath("/race", want[off:off+64], int64(off)); err != nil {
				written <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fd, err := c.Open("/race", O_RDONLY)
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
						errs[g] = fmt.Errorf("reader %d: wrong bytes at %d", g, off)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadAheadRemoveDropsCache verifies nothing read-ahead fetched
// survives the file: a new file under the same name must never read the
// old one's bytes.
func TestReadAheadRemoveDropsCache(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 3, Config{ChunkSize: 64, ReadAhead: true})
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
		t.Fatal("reborn file served the removed file's bytes")
	}
}

// TestReadAheadStatsCounters verifies the protocol-4 observability: read
// RPCs report the spans they carried and the bulk bytes they actually
// pushed, and hole-heavy reads push (almost) nothing.
func TestReadAheadStatsCounters(t *testing.T) {
	c, daemons, _ := newCluster(t, "mem", 2, Config{ChunkSize: 64})
	// 4 chunks of data, then a hole to 16 chunks via a data-free grow.
	writeFileVia(t, c, "/holes", patternedBytes(64*4, 19))
	if err := c.GrowMany([]string{"/holes"}, []int64{64 * 16})[0]; err != nil {
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

// TestReadAheadGrowPastCachedEOF pins a fetched span that came up short
// at the file's end and a grow that overrules it: once the file reaches
// further — an acknowledged grow raising the size view (acked-grow), or
// GrowMany's batched update (growmany) — the sequential read through the
// span must go on past the span's end into the hole's zeros, never stop
// at it as if it were still the end.
func TestReadAheadGrowPastCachedEOF(t *testing.T) {
	const size, grown = 100, 150
	for _, arm := range []string{"acked-grow", "growmany"} {
		t.Run(arm, func(t *testing.T) {
			c, _, _ := newCluster(t, "mem", 3, Config{ChunkSize: 64, ReadAhead: true})
			data := patternedBytes(size, 21)
			writeFileVia(t, c, "/grow", data)
			fd, err := c.Open("/grow", O_RDONLY)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close(fd)
			buf := make([]byte, 200)
			// Two sequential reads arm one fetch, [20, 256), which finds the
			// file's end at 100.
			for off := int64(0); off < 20; off += 10 {
				if n, err := c.ReadAt(fd, buf[:10], off); n != 10 || err != nil {
					t.Fatalf("read at %d = %d, %v", off, n, err)
				}
			}
			raQuiesce(t, c, fd)
			if offs := windowFetches(t, c, fd); fmt.Sprint(offs) != "[20]" {
				t.Fatalf("precondition: the window holds fetches at %v, want [20]", offs)
			}
			if arm == "acked-grow" {
				gen := c.sizeGen.Load()
				if err := c.updateSize("/grow", grown, false); err != nil {
					t.Fatal(err)
				}
				of, err := c.lookupFD(fd)
				if err != nil {
					t.Fatal(err)
				}
				of.view.raise(gen, grown)
			} else {
				for _, err := range c.GrowMany([]string{"/grow"}, []int64{grown}) {
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			n, err := c.ReadAt(fd, buf, 20)
			if err != io.EOF || n != grown-20 {
				t.Fatalf("post-grow read = %d, %v; want %d, io.EOF (the fetch's end served as EOF)", n, err, grown-20)
			}
			want := append(append([]byte(nil), data[20:]...), make([]byte, grown-size)...)
			if !bytes.Equal(buf[:n], want) {
				t.Fatal("post-grow read: wrong bytes, or a hole byte not zero")
			}
		})
	}
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

// fetchOver matches the reads of more than over bytes: a prefetch's span
// fetch, on a file whose other reads are half a chunk.
func fetchOver(over int64) func(wiretest.Call) bool {
	return func(c wiretest.Call) bool { return c.Dir == rpc.BulkOut && int64(c.Len()) > over }
}

// armPrefetch writes a 5-chunk file on a one-daemon cluster whose
// connection runs through wire, and issues the two half-chunk reads that
// arm speculation: both read their one window straight into the caller's
// buffer — they draw nothing from the pool — and the second launches
// exactly one span fetch, chunks 1-4 (the rest of the file), in one RPC.
// It returns after the second read, with wire's log and drawn (when not
// nil) counting from that read on; the fetch may still be in flight.
func armPrefetch(t *testing.T, cs int64, wire *wiretest.Script, drawn *atomic.Int64) (c *Client, fd int, want []byte) {
	t.Helper()
	c, _, _ = newCluster(t, "mem", 1, Config{ChunkSize: cs, ReadAhead: true})
	want = patternedBytes(int(5*cs), 3)
	writeFileVia(t, c, "/f", want)
	wire.Wrap(c.cfg.Conns)
	fd, err := c.Open("/f", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	half := make([]byte, cs/2)
	for i := 0; i < 2; i++ {
		if i == 1 {
			wire.Take()
			if drawn != nil {
				drawn.Store(0)
			}
		}
		if n, err := c.Read(fd, half); n != len(half) || err != nil {
			t.Fatalf("read %d = %d, %v", i, n, err)
		}
	}
	return c, fd, want
}

// TestPrefetchLandsInWindowRegion is the cost pin of the read path's
// landing: the one window the transport is handed for a 4-chunk fetch
// is the region the fetch holds — its chunks are adjacent, so they are
// one window, and nothing stands between the wire and the region — the
// fetch is one RPC, and it draws exactly one 4-chunk region from the
// pool, no scratch.
func TestPrefetchLandsInWindowRegion(t *testing.T) {
	const cs = 8 << 10
	wire := new(wiretest.Script)
	var drawn atomic.Int64
	defer rpc.ObserveDraws(func(n int) { drawn.Add(int64(n)) })()
	c, fd, want := armPrefetch(t, cs, wire, &drawn)
	raQuiesce(t, c, fd)
	// Armed by a read that drew nothing, the fetch is all that drew since.
	if got := drawn.Load(); got != 4*cs {
		t.Fatalf("fetch of 4 chunks drew %d pool bytes, want %d", got, 4*cs)
	}
	var lists [][][]byte
	for _, call := range wire.Take() {
		if fetchOver(cs)(call) {
			lists = append(lists, call.Windows)
		}
	}
	if len(lists) != 1 || len(lists[0]) != 1 {
		t.Fatalf("prefetch issued %d window lists, want one of one window", len(lists))
	}
	live := liveFetches(t, c, fd)
	if len(live) != 1 {
		t.Fatalf("the window holds %d fetches, want 1", len(live))
	}
	f := live[0]
	if f.Off != cs || len(f.buf) != 4*cs || !bytes.Equal(f.buf, want[cs:]) {
		t.Fatalf("the fetch holds [%d, %d), want [%d, %d) with the file's bytes", f.Off, f.End, cs, 5*cs)
	}
	if w := lists[0][0]; len(w) != 4*cs || &f.buf[0] != &w[0] {
		t.Fatalf("the region starts at %p, the transport filled %p (%d bytes)", &f.buf[0], w, len(w))
	}
}

// TestPrefetchInvalidatedMidFlightRecyclesOnce drops a fetch from its
// window while its RPC is still out: the fetch lands already dropped, so
// its region must return to the pool — exactly once: a buffer put twice
// would be handed to two owners — and the read that wanted those bytes
// must see the bytes written since.
func TestPrefetchInvalidatedMidFlightRecyclesOnce(t *testing.T) {
	const cs = 8 << 10
	wire := new(wiretest.Script)
	gate := wire.Gate(1, fetchOver(cs))
	defer gate.Release()
	c, fd, want := armPrefetch(t, cs, wire, nil)
	<-gate.Caught()
	fresh := patternedBytes(4*cs, 9)
	if err := c.WritePath("/f", fresh, cs); err != nil { // lands, then drops the fetch of chunks 1-4
		t.Fatal(err)
	}
	copy(want[cs:], fresh)
	gate.Release()
	raQuiesce(t, c, fd)

	live := map[*byte]bool{}
	for i := 0; i < 64; i++ {
		b := rpc.GetBuf(4 * cs) // the fetch's region class
		if live[&b[0]] {
			t.Fatal("the pool handed out one buffer twice: a dropped fetch's region was recycled more than once")
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
