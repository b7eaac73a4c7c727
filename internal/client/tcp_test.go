package client

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/daemon"
	"repro/internal/meta"
	"repro/internal/rpc"
	"repro/internal/transport/wiretest"
	"repro/internal/vfs"
)

// TestTCPClusterEndToEnd runs the full client↔daemon protocol over real
// sockets: three daemons on loopback listeners, one client dialing all of
// them — the multi-process deployment shape of cmd/gkfs-daemon.
func TestTCPClusterEndToEnd(t *testing.T) {
	c, _, _ := newCluster(t, "tcp", 3, Config{ChunkSize: 1024})

	// Metadata burst.
	if err := c.Mkdir("/job"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		fd, err := c.Create("/job/rank" + string(rune('a'+i%26)) + ".out")
		if err != nil && err.Error() != "gekkofs: file exists" {
			t.Fatal(err)
		}
		if err == nil {
			if err := c.Close(fd); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Data across chunk boundaries and daemons, over the wire.
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i * 13)
	}
	fd, err := c.Create("/job/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteAt(fd, data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := c.ReadAt(fd, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("TCP round trip corrupted data")
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}

	ents, err := c.ReadDir("/job")
	if err != nil || len(ents) == 0 {
		t.Fatalf("ReadDir over TCP = %v, %v", ents, err)
	}
}

// TestTCPVectoredMetadata runs the batch plane and the paged ReadDir over
// real sockets: the batched RPCs, per-op errno stitching, and multi-page
// directory drains must survive the framed wire, not just the in-process
// shortcut.
func TestTCPVectoredMetadata(t *testing.T) {
	c, _, _ := newCluster(t, "tcp", 2, Config{ChunkSize: 1024})
	c.readDirPage = 5 // force several pages per daemon

	paths := make([]string, 37)
	for i := range paths {
		paths[i] = "/w" + string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	for i, err := range c.CreateMany(paths) {
		if err != nil {
			t.Fatalf("create %s over TCP: %v", paths[i], err)
		}
	}
	// Duplicate batch: every op answers ErrExist individually.
	for i, err := range c.CreateMany(paths) {
		if err == nil {
			t.Fatalf("duplicate create %s succeeded", paths[i])
		}
	}
	ents, err := c.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(paths) {
		t.Fatalf("paged TCP ReadDir = %d entries, want %d", len(ents), len(paths))
	}
	for i, err := range c.RemoveMany(paths) {
		if err != nil {
			t.Fatalf("remove %s over TCP: %v", paths[i], err)
		}
	}
}

// TestDataPathSyncWriteSendsSplitGroupUnstaged pins that a synchronous
// write sends a group straight from p even when its windows are not
// adjacent — chunks 0 and 2 of the file on one daemon, chunk 1 on the
// other — over TCP: the group goes out as two windows of p in one
// writev, so the only region of its size drawn from the pool is the
// daemon's receive buffer. A group split by another daemon's chunks was
// once gathered into a pooled staging copy first, a second draw.
func TestDataPathSyncWriteSendsSplitGroupUnstaged(t *testing.T) {
	const cs = 4096
	c, _, _ := newCluster(t, "tcp", 2, Config{ChunkSize: cs})
	path := ""
	for i := 0; path == "" && i < 1000; i++ {
		cand, d := fmt.Sprintf("/split%d", i), c.dist
		if t0 := d.ChunkTarget(cand, 0); t0 == d.ChunkTarget(cand, 2) && t0 != d.ChunkTarget(cand, 1) {
			path = cand
		}
	}
	if path == "" {
		t.Fatal("no path places chunks 0 and 2 on one daemon and chunk 1 on the other")
	}
	fd, err := c.Open(path, O_CREATE|O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(fd)
	p := make([]byte, 3*cs)
	for i := range p {
		p[i] = byte(i*7 + i/cs*61)
	}
	var drawn atomic.Int64
	stop := rpc.ObserveDraws(func(n int) {
		if n == 2*cs {
			drawn.Add(1)
		}
	})
	_, err = c.WriteAt(fd, p, 0)
	stop()
	if err != nil {
		t.Fatal(err)
	}
	if k := drawn.Load(); k != 1 {
		t.Fatalf("%d regions of the split group's size drawn, want 1 (the daemon's receive buffer)", k)
	}
	got := make([]byte, len(p))
	if n, err := c.ReadAt(fd, got, 0); err != nil || n != len(p) {
		t.Fatalf("read back %d bytes, %v", n, err)
	}
	if !bytes.Equal(got, p) {
		t.Fatal("the split group's chunks read back wrong")
	}
}

// TestDataPathTransferCapSplitsOneDaemonsGroup moves more than a stream
// frame may carry (twice rpc.MaxBulk) to and from one daemon in single
// calls, over TCP and the shm doorbell. The client cuts the daemon's
// group at chunk boundaries into RPCs of at most rpc.MaxBulk bytes, so
// the write and the read each succeed and the bytes come back exact. As
// one group the range framed 136 MiB, past the TCP frame limit: the
// write failed as a broken pipe, the read as a dropped connection.
func TestDataPathTransferCapSplitsOneDaemonsGroup(t *testing.T) {
	const size = 2*rpc.MaxBulk + 8<<20
	p := make([]byte, size)
	for i := 0; i < size; i += 8 {
		binary.LittleEndian.PutUint64(p[i:], uint64(i))
	}
	got := make([]byte, size)
	for _, carrier := range []string{"tcp", "shm"} {
		t.Run(carrier, func(t *testing.T) {
			c := oneDaemonOver(t, carrier)
			fd, err := c.Open("/big", O_CREATE|O_RDWR)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close(fd)
			if n, err := c.WriteAt(fd, p, 0); err != nil || n != size {
				t.Fatalf("write of %d bytes to one daemon = %d, %v", size, n, err)
			}
			clear(got)
			if n, err := c.ReadAt(fd, got, 0); err != nil || n != size {
				t.Fatalf("read of %d bytes from one daemon = %d, %v", size, n, err)
			}
			if !bytes.Equal(got, p) {
				t.Fatal("the bytes read back differ from those written")
			}
		})
	}
}

// oneDaemonOver serves one daemon at the default chunk size, its chunks
// on disk, and mounts a client on it over carrier: "tcp", or "shm" (the
// doorbell with a default-sized segment), skipped where unavailable.
func oneDaemonOver(t *testing.T, carrier string) *Client {
	t.Helper()
	fs, err := vfs.NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, err := daemon.New(daemon.Config{ID: 0, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	conn := wiretest.Dial(t, d.Server(), carrier, 1)
	c, err := New(Config{Conns: []rpc.Conn{conn}, ChunkSize: meta.DefaultChunkSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureRoot(); err != nil {
		t.Fatal(err)
	}
	return c
}
