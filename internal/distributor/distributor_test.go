package distributor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/meta"
)

func TestSimpleHashDeterministic(t *testing.T) {
	d1 := NewSimpleHash(37)
	d2 := NewSimpleHash(37)
	f := func(path string, id uint16) bool {
		return d1.MetaTarget(path) == d2.MetaTarget(path) &&
			d1.ChunkTarget(path, meta.ChunkID(id)) == d2.ChunkTarget(path, meta.ChunkID(id))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimpleHashInRange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16, 512} {
		d := NewSimpleHash(n)
		for i := 0; i < 1000; i++ {
			p := fmt.Sprintf("/dir/file.%d", i)
			if tgt := d.MetaTarget(p); tgt < 0 || tgt >= n {
				t.Fatalf("n=%d MetaTarget(%q)=%d out of range", n, p, tgt)
			}
			if tgt := d.ChunkTarget(p, meta.ChunkID(i)); tgt < 0 || tgt >= n {
				t.Fatalf("n=%d ChunkTarget out of range", n)
			}
		}
	}
}

// TestSimpleHashBalance checks the load-balancing claim: hashing must
// spread many files roughly uniformly over daemons (within 4 standard
// deviations of the binomial expectation per bin).
func TestSimpleHashBalance(t *testing.T) {
	const n = 32
	const files = 64000
	d := NewSimpleHash(n)
	counts := make([]int, n)
	for i := 0; i < files; i++ {
		counts[d.MetaTarget(fmt.Sprintf("/bench/out.%d", i))]++
	}
	mean := float64(files) / n
	sigma := math.Sqrt(mean * (1 - 1.0/n))
	for node, c := range counts {
		if math.Abs(float64(c)-mean) > 4*sigma {
			t.Errorf("node %d holds %d files, mean %.0f ± %.0f (4σ)", node, c, mean, sigma)
		}
	}
}

// TestChunkSpread checks that the chunks of a single large file land on
// many daemons — the wide-striping property that gives Fig. 3 its
// aggregated-SSD scaling.
func TestChunkSpread(t *testing.T) {
	const n = 64
	d := NewSimpleHash(n)
	seen := make(map[int]bool)
	for c := meta.ChunkID(0); c < 4096; c++ {
		seen[d.ChunkTarget("/data/big.bin", c)] = true
	}
	if len(seen) < n*9/10 {
		t.Fatalf("4096 chunks hit only %d/%d daemons", len(seen), n)
	}
}

func TestConstructorsPanicOnBadArgs(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewSimpleHash(0)", func() { NewSimpleHash(0) })
	mustPanic("NewSimpleHash(-1)", func() { NewSimpleHash(-1) })
}

func TestDifferentPathsSpread(t *testing.T) {
	// Distinct paths should not all collapse to one node (sanity against a
	// constant hash).
	d := NewSimpleHash(8)
	seen := make(map[int]bool)
	for i := 0; i < 100; i++ {
		seen[d.MetaTarget(fmt.Sprintf("/p/%d", i))] = true
	}
	if len(seen) < 4 {
		t.Fatalf("100 paths map to only %d/8 nodes", len(seen))
	}
}
