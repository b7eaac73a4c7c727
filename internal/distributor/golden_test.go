package distributor

import (
	"testing"

	"repro/internal/meta"
)

// TestPlacementGolden pins placement across builds: every row is a
// (path, chunk, daemons) input with the metadata owner and chunk owner
// an earlier build computed for it. A data directory reopened by a later
// build (gekkofs.WithDataDir) is only readable if no row moves — the
// other tests here check properties that a different hash would satisfy
// just as well.
func TestPlacementGolden(t *testing.T) {
	for _, g := range []struct {
		path       string
		id         meta.ChunkID
		n          int
		meta, data int
	}{
		{"/", 0, 1, 0, 0},
		{"/", 0, 2, 0, 0},
		{"/a", 1, 3, 2, 2},
		{"/a", 2, 3, 2, 1},
		{"/dir/file.0", 0, 4, 2, 2},
		{"/dir/file.0", 7, 4, 2, 1},
		{"/bench/out.12345", 3, 16, 6, 5},
		{"/data/big.bin", 4095, 16, 12, 2},
		{"/data/big.bin", 4096, 64, 12, 60},
		{"/race/f3", 2, 4, 3, 1},
		{"/ckpt/rank-0007.dat", 1048576, 7, 0, 6},
		{"/ckpt/rank-0007.dat", 4294967301, 7, 0, 2},
		{"/shared/file", 18446744073709551615, 5, 4, 1},
		{"/ünïcode/ファイル", 11, 9, 6, 1},
		{"/deep/a/b/c/d/e/f/g/h/i/j/k/l/m/n/o/p", 99, 512, 116, 247},
		{"/x", 7, 4, 2, 1},
		{"/mdtest/tree.0/file.999999", 0, 32, 3, 3},
	} {
		d := NewSimpleHash(g.n)
		if got := d.MetaTarget(g.path); got != g.meta {
			t.Errorf("n=%d MetaTarget(%q) = %d, pinned %d", g.n, g.path, got, g.meta)
		}
		if got := d.ChunkTarget(g.path, g.id); got != g.data {
			t.Errorf("n=%d ChunkTarget(%q, %d) = %d, pinned %d", g.n, g.path, g.id, got, g.data)
		}
	}
}
