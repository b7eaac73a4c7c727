package kvstore

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/vfs"
)

// These microbenchmarks measure the metadata-operation building blocks:
// a GekkoFS create is one small put, a stat is one point get.

func BenchmarkPutSmall(b *testing.B) {
	db, err := Open(Options{FS: vfs.NewMem()})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	v := make([]byte, 25) // metadata record size
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put([]byte(fmt.Sprintf("/bench/dir/file.%08d", i)), v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetSmall(b *testing.B) {
	db, err := Open(Options{FS: vfs.NewMem()})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const n = 100000
	v := make([]byte, 25)
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("/bench/dir/file.%08d", i)), v); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("/bench/dir/file.%08d", i%n))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeleteSmall(b *testing.B) {
	db, err := Open(Options{FS: vfs.NewMem()})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Delete([]byte(fmt.Sprintf("/bench/dir/file.%08d", i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergeSizeUpdate(b *testing.B) {
	db, err := Open(Options{FS: vfs.NewMem(), Merger: sizeMax})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Merge([]byte("/shared/file"), u64(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetAfterMerges reads a key that took 10, 10³ and 10⁵ merges
// since its put. The three lines are flat — ns/op, B/op and allocs/op do
// not depend on the merge count — because each merge is folded into the
// key's one entry as it is inserted (fold.go).
func BenchmarkGetAfterMerges(b *testing.B) {
	for _, merges := range []int{10, 1000, 100000} {
		b.Run(fmt.Sprintf("merges=%d", merges), func(b *testing.B) {
			db, err := Open(Options{FS: vfs.NewMem(), Merger: sizeMax})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			key := []byte("/shared/file")
			if err := db.Put(key, u64(0)); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < merges; i++ {
				if err := db.Merge(key, u64(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Get(key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecover opens a store of 1 Mi daemon-shaped entries (a 32-byte
// path key, a 35-byte record) held in its checkpoint, on the OS file
// system, and reports what recovery costs per entry: ns, and the heap
// bytes the opened store holds after GC.
func BenchmarkRecover(b *testing.B) {
	fs, err := vfs.NewOS(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	const n = 1 << 20
	db, err := Open(Options{FS: fs})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i += n / 8 {
		fillDaemonShaped(b, db, i, i+n/8)
		if err := db.checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	var ms runtime.MemStats
	var heap uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		b.StartTimer()
		db, err := Open(Options{FS: fs})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		heap += ms.HeapAlloc - before
		if len(db.base.offs) != n {
			b.Fatalf("recovered %d entries, want %d", len(db.base.offs), n)
		}
		db.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/entry")
	b.ReportMetric(float64(heap)/float64(b.N)/n, "heap-B/entry")
}
