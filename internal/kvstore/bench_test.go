package kvstore

import (
	"fmt"
	"testing"

	"repro/internal/vfs"
)

// These microbenchmarks measure the metadata-operation building blocks the
// simulation plane's service-time constants are calibrated from
// (internal/simcluster/params.go): a GekkoFS create is one small put, a
// stat is one point get.

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
// not depend on the merge count — because inserts keep a key's merge run
// bounded (fold.go).
func BenchmarkGetAfterMerges(b *testing.B) {
	for _, merges := range []int{10, 1000, 100000} {
		b.Run(fmt.Sprintf("merges=%d", merges), func(b *testing.B) {
			db, err := Open(Options{FS: vfs.NewMem(), Merger: sizeMax, DisableWAL: true})
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
