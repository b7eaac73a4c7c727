package client

import (
	"bytes"
	"io"
	"testing"
)

// TestAppendUnderSizeCache is the regression test for O_APPEND lost
// writes: with SizeCacheOps > 1 the server's size view lags the
// descriptor's writes, and resolving append EOF from the stat alone made
// the second cached append land on top of the first.
func TestAppendUnderSizeCache(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 3, Config{ChunkSize: 64, SizeCacheOps: 8})
	fd, err := c.Open("/log", O_CREATE|O_WRONLY|O_APPEND)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 5; i++ {
		part := bytes.Repeat([]byte{'a' + byte(i)}, 33) // crosses chunk bounds
		if _, err := c.Write(fd, part); err != nil {
			t.Fatal(err)
		}
		want = append(want, part...)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}

	rfd, err := c.Open("/log", O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(rfd)
	got := make([]byte, len(want)+16)
	n, err := c.ReadAt(rfd, got, 0)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if n != len(want) || !bytes.Equal(got[:n], want) {
		t.Fatalf("appends overwrote each other: got %d bytes %q, want %d bytes %q",
			n, got[:n], len(want), want)
	}
}

// TestReadOwnCachedWrites verifies a descriptor can read and seek past
// the server's stale size while its size update is still cached.
func TestReadOwnCachedWrites(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 2, Config{ChunkSize: 128, SizeCacheOps: 100})
	fd, err := c.Open("/data", O_CREATE|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	payload := bytes.Repeat([]byte{0xAB}, 300)
	if _, err := c.Write(fd, payload); err != nil {
		t.Fatal(err)
	}
	// The size update is still cached client-side (1 write < 100 ops),
	// so the server believes the file is empty.
	got := make([]byte, 300)
	n, err := c.ReadAt(fd, got, 0)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if n != len(payload) || !bytes.Equal(got[:n], payload) {
		t.Fatalf("read-after-cached-write = %d bytes, want %d", n, len(payload))
	}
	// SEEK_END must land at the cached size, not the stale server size.
	end, err := c.Seek(fd, 0, io.SeekEnd)
	if err != nil {
		t.Fatal(err)
	}
	if end != int64(len(payload)) {
		t.Fatalf("SEEK_END = %d, want %d", end, len(payload))
	}
}

// TestTruncateDropsPendingSize verifies truncate invalidates descriptors'
// unflushed size candidates: without that, the size floor would
// resurrect the pre-truncate size (ghost zero reads, appends past EOF,
// SEEK_END beyond the file).
func TestTruncateDropsPendingSize(t *testing.T) {
	c, _, _ := newCluster(t, "mem", 2, Config{ChunkSize: 64, SizeCacheOps: 100})
	fd, err := c.Open("/t", O_CREATE|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	if _, err := c.Write(fd, bytes.Repeat([]byte{7}, 100)); err != nil {
		t.Fatal(err)
	}
	// Size update still cached (1 write < 100 ops); now discard the data.
	if err := c.Truncate("/t", 0); err != nil {
		t.Fatal(err)
	}
	if n, err := c.ReadAt(fd, make([]byte, 100), 0); err != io.EOF || n != 0 {
		t.Fatalf("read after truncate = %d, %v; want 0, EOF", n, err)
	}
	if end, err := c.Seek(fd, 0, io.SeekEnd); err != nil || end != 0 {
		t.Fatalf("SEEK_END after truncate = %d, %v; want 0", end, err)
	}
}

// BenchmarkReadSmall guards the read path's per-call overhead (stat +
// zero-fill + span gather) on a cache-hot 4 KiB read.
func BenchmarkReadSmall(b *testing.B) {
	c, _, _ := newCluster(b, "mem", 2, Config{ChunkSize: 512 << 10})
	fd, err := c.Open("/bench", O_CREATE|O_RDWR)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close(fd)
	if _, err := c.WriteAt(fd, bytes.Repeat([]byte{1}, 64<<10), 0); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4<<10)
	b.SetBytes(4 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadAt(fd, buf, int64(i%16)<<12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteLarge guards the striped write path's allocation
// behavior (pooled bulk buffers) on 1 MiB writes.
func BenchmarkWriteLarge(b *testing.B) {
	c, _, _ := newCluster(b, "mem", 4, Config{ChunkSize: 512 << 10})
	fd, err := c.Open("/bench", O_CREATE|O_RDWR)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close(fd)
	buf := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.WriteAt(fd, buf, int64(i%64)<<20); err != nil {
			b.Fatal(err)
		}
	}
}
