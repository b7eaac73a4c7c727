package rpc

import "testing"

// TestBufPoolCycleAllocFree pins the pool's steady state: once a class
// holds a buffer, drawing it and handing it back allocates nothing —
// the release included, which boxed a slice header on every PutBuf
// until the pools held array pointers. Each class is cycled on its own
// so a collection triggered by one class's first draw cannot empty
// another's pool mid-measurement.
func TestBufPoolCycleAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of its Puts")
	}
	for c := minBufClass; c <= maxBufClass; c++ {
		smallest := 1<<(c-1) + 1
		if c == minBufClass {
			smallest = 1
		}
		for _, n := range []int{smallest, 1 << c} {
			if allocs := testing.AllocsPerRun(100, func() {
				b := GetBuf(n)
				if len(b) != n || cap(b) != 1<<c {
					t.Fatalf("GetBuf(%d) = len %d cap %d, want len %d cap %d", n, len(b), cap(b), n, 1<<c)
				}
				PutBuf(b)
			}); allocs != 0 {
				t.Errorf("GetBuf/PutBuf of %d bytes (class %d): %v allocs per cycle, want 0", n, c, allocs)
			}
		}
	}
}
