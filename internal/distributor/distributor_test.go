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

func TestChunkReplicasDistinct(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 16} {
		d := NewSimpleHash(n)
		for r := 1; r <= n; r++ {
			for c := meta.ChunkID(0); c < 64; c++ {
				reps := d.ChunkReplicas("/data/f", c, r)
				if len(reps) != r {
					t.Fatalf("n=%d r=%d: got %d replicas", n, r, len(reps))
				}
				seen := make(map[int]bool, r)
				for _, node := range reps {
					if node < 0 || node >= n {
						t.Fatalf("n=%d r=%d: replica %d out of range", n, r, node)
					}
					if seen[node] {
						t.Fatalf("n=%d r=%d: duplicate replica %d in %v", n, r, node, reps)
					}
					seen[node] = true
				}
			}
		}
	}
}

// TestChunkReplicasR1Identity: r=1 must reproduce the unreplicated
// placement bit-for-bit, so existing clusters are untouched by the knob.
func TestChunkReplicasR1Identity(t *testing.T) {
	d := NewSimpleHash(17)
	f := func(path string, id uint16) bool {
		reps := d.ChunkReplicas(path, meta.ChunkID(id), 1)
		return len(reps) == 1 && reps[0] == d.ChunkTarget(path, meta.ChunkID(id))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestChunkReplicasDeterministic: two independently constructed
// distributors (two clients) must agree on the full replica chain, and
// the chain must lead with the primary.
func TestChunkReplicasDeterministic(t *testing.T) {
	d1, d2 := NewSimpleHash(11), NewSimpleHash(11)
	f := func(path string, id uint16) bool {
		a := d1.ChunkReplicas(path, meta.ChunkID(id), 3)
		b := d2.ChunkReplicas(path, meta.ChunkID(id), 3)
		if len(a) != 3 || len(b) != 3 || a[0] != d1.ChunkTarget(path, meta.ChunkID(id)) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestChunkReplicasClamped: asking for more replicas than daemons must
// clamp to n (every daemon once), never duplicate or overflow.
func TestChunkReplicasClamped(t *testing.T) {
	const n = 4
	d := NewSimpleHash(n)
	for _, r := range []int{n + 1, 2 * n, 100} {
		reps := d.ChunkReplicas("/x", 7, r)
		if len(reps) != n {
			t.Fatalf("r=%d: got %d replicas, want clamp to %d", r, len(reps), n)
		}
		seen := make(map[int]bool)
		for _, node := range reps {
			seen[node] = true
		}
		if len(seen) != n {
			t.Fatalf("r=%d: clamped chain %v does not cover all %d daemons", r, reps, n)
		}
	}
	// r ≤ 0 degrades to the primary alone rather than panicking.
	if reps := d.ChunkReplicas("/x", 7, 0); len(reps) != 1 || reps[0] != d.ChunkTarget("/x", 7) {
		t.Fatalf("r=0: got %v, want [primary]", reps)
	}
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
