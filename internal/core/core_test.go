package core

import (
	"testing"

	"repro/internal/daemon"
)

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(Config{Nodes: 0}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := NewCluster(Config{Nodes: -1}); err == nil {
		t.Fatal("negative nodes accepted")
	}
}

func TestUnknownDistributorRejectedAtMount(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 1, Distributor: "nonsense"})
	if err == nil {
		defer c.Close()
		if _, err := c.NewClient(); err == nil {
			t.Fatal("unknown distributor accepted")
		}
		return
	}
	// Rejecting at deploy time is fine too.
}

func TestClusterLifecycle(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 3, Daemon: daemon.Config{ChunkSize: 2048}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes() != 3 || c.ChunkSize() != 2048 {
		t.Fatalf("shape = %d nodes, chunk %d", c.Nodes(), c.ChunkSize())
	}
	if c.DeployTime() <= 0 {
		t.Fatal("deploy time missing")
	}
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	fd, err := cl.Create("/x")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(fd); err != nil {
		t.Fatal(err)
	}
	stats := c.DaemonStats()
	if len(stats) != 3 {
		t.Fatalf("stats for %d daemons", len(stats))
	}
	var creates uint64
	for _, st := range stats {
		creates += st.Creates
	}
	// Root + /x.
	if creates < 2 {
		t.Fatalf("creates = %d", creates)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Idempotent close.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultChunkSize(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.ChunkSize() != 512*1024 {
		t.Fatalf("default chunk = %d", c.ChunkSize())
	}
}
