package client

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/transport"
)

// TestTCPClusterEndToEnd runs the full client↔daemon protocol over real
// sockets: three daemons on loopback listeners, one client dialing all of
// them — the multi-process deployment shape of cmd/gkfs-daemon.
func TestTCPClusterEndToEnd(t *testing.T) {
	const nodes = 3
	conns := make([]rpc.Conn, nodes)
	for i := range conns {
		addr, _ := serveDaemon(t, i, 1024, false)
		conn, err := transport.DialTCP(addr, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conns[i] = conn
	}

	c, err := New(Config{Conns: conns, ChunkSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureRoot(); err != nil {
		t.Fatal(err)
	}

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
	const nodes = 2
	conns := make([]rpc.Conn, nodes)
	for i := range conns {
		addr, _ := serveDaemon(t, i, 1024, false)
		conn, err := transport.DialTCP(addr, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conns[i] = conn
	}
	c, err := New(Config{Conns: conns, ChunkSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureRoot(); err != nil {
		t.Fatal(err)
	}
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
