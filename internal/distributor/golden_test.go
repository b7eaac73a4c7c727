package distributor

import (
	"slices"
	"testing"

	"repro/internal/meta"
)

// TestPlacementGolden pins placement across builds: every row is a
// (path, chunk, daemons, replicas) input with the metadata owner, chunk
// owner and replica chain an earlier build computed for it. A data
// directory reopened by a later build (gekkofs.WithDataDir) is only
// readable if no row moves — the other tests here check properties
// that a different hash would satisfy just as well.
func TestPlacementGolden(t *testing.T) {
	for _, g := range []struct {
		path       string
		id         meta.ChunkID
		n, r       int
		meta, data int
		replicas   []int
	}{
		{"/", 0, 1, 1, 0, 0, []int{0}},
		{"/", 0, 2, 2, 0, 0, []int{0, 1}},
		{"/a", 1, 3, 2, 2, 2, []int{2, 0}},
		{"/a", 2, 3, 3, 2, 1, []int{1, 2, 0}},
		{"/dir/file.0", 0, 4, 1, 2, 2, []int{2}},
		{"/dir/file.0", 7, 4, 3, 2, 1, []int{1, 2, 3}},
		{"/bench/out.12345", 3, 16, 2, 6, 5, []int{5, 6}},
		{"/data/big.bin", 4095, 16, 3, 12, 2, []int{2, 3, 4}},
		{"/data/big.bin", 4096, 64, 2, 12, 60, []int{60, 61}},
		{"/race/f3", 2, 4, 4, 3, 1, []int{1, 2, 3, 0}},
		{"/race/f3", 2, 4, 9, 3, 1, []int{1, 2, 3, 0}},
		{"/ckpt/rank-0007.dat", 1048576, 7, 3, 0, 6, []int{6, 0, 1}},
		{"/ckpt/rank-0007.dat", 4294967301, 7, 1, 0, 2, []int{2}},
		{"/shared/file", 18446744073709551615, 5, 2, 4, 1, []int{1, 2}},
		{"/ünïcode/ファイル", 11, 9, 3, 6, 1, []int{1, 2, 3}},
		{"/deep/a/b/c/d/e/f/g/h/i/j/k/l/m/n/o/p", 99, 512, 3, 116, 247, []int{247, 248, 249}},
		{"/x", 7, 4, 0, 2, 1, []int{1}},
		{"/mdtest/tree.0/file.999999", 0, 32, 2, 3, 3, []int{3, 4}},
	} {
		d := NewSimpleHash(g.n)
		if got := d.MetaTarget(g.path); got != g.meta {
			t.Errorf("n=%d MetaTarget(%q) = %d, pinned %d", g.n, g.path, got, g.meta)
		}
		if got := d.ChunkTarget(g.path, g.id); got != g.data {
			t.Errorf("n=%d ChunkTarget(%q, %d) = %d, pinned %d", g.n, g.path, g.id, got, g.data)
		}
		if got := d.ChunkReplicas(g.path, g.id, g.r); !slices.Equal(got, g.replicas) {
			t.Errorf("n=%d ChunkReplicas(%q, %d, %d) = %v, pinned %v", g.n, g.path, g.id, g.r, got, g.replicas)
		}
	}
}
