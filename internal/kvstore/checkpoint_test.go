package kvstore

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vfs"
)

// TestPointReadSurvivesCheckpoint races every point-read entry point, and
// an iterator opened before the race, against checkpoint installs and the
// removals of the logs they cover. The key is put into the base and then
// merged into, which folds it into the memtable, and a writer churning
// other keys through a tiny log freezes and checkpoints it again and
// again. Every read must see the operand applied exactly once (the merger
// appends): nothing a reader holds is ever closed or unlinked under it,
// and a base never shows beside the frozen memtable it folded. The
// iterator returns the key once, and otherwise only churned keys.
func TestPointReadSurvivesCheckpoint(t *testing.T) {
	key, want := []byte("size"), []byte("put.merged.")
	reads := map[string]func(*DB) ([]byte, error){
		"Get": func(db *DB) ([]byte, error) { return db.Get(key) },
		"Has": func(db *DB) ([]byte, error) {
			if ok, err := db.Has(key); err != nil || !ok {
				return nil, fmt.Errorf("Has = %v, %v", ok, err)
			}
			return want, nil
		},
		"PutIfAbsent": func(db *DB) ([]byte, error) {
			if stored, err := db.PutIfAbsent(key, []byte("absent.")); err != nil || stored {
				return nil, fmt.Errorf("PutIfAbsent stored = %v, %v", stored, err)
			}
			return db.Get(key)
		},
		"Update": func(db *DB) ([]byte, error) {
			var seen []byte
			err := db.Update(key, func(cur []byte, _ bool) ([]byte, bool, error) {
				seen = cur
				return cur, false, nil
			})
			return seen, err
		},
		"Iterator": func(db *DB) ([]byte, error) {
			it, err := db.NewIterator()
			if err != nil {
				return nil, err
			}
			defer it.Close()
			if it.Seek(key); !it.Valid() || !bytes.Equal(it.Key(), key) {
				return nil, fmt.Errorf("Seek(%q) landed on %q", key, it.Key())
			}
			return it.Value(), nil
		},
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			db := openTestDB(t, Options{Merger: appendMerger, logBytes: 1 << 10})
			if err := db.Put(key, []byte("put.")); err != nil {
				t.Fatal(err)
			}
			if err := db.checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := db.Merge(key, []byte("merged.")); err != nil {
				t.Fatal(err)
			}
			pinned, err := db.NewIterator()
			if err != nil {
				t.Fatal(err)
			}
			defer pinned.Close()

			var done atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; !done.Load(); i++ {
					if err := db.Put([]byte(fmt.Sprintf("churn-%03d", i%500)), val(i)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			start, deadline := db.Stats().Checkpoints, time.Now().Add(10*time.Second)
			for db.Stats().Checkpoints < start+20 && time.Now().Before(deadline) {
				if got, err := read(db); err != nil || !bytes.Equal(got, want) {
					t.Errorf("read across checkpoints = %q, %v; want %q", got, err, want)
					break
				}
			}
			done.Store(true)
			wg.Wait()
			if n := db.Stats().Checkpoints - start; n < 20 {
				t.Fatalf("only %d checkpoints raced the reads", n)
			}
			var keys []string
			for pinned.SeekFirst(); pinned.Valid(); pinned.Next() {
				if bytes.HasPrefix(pinned.Key(), []byte("churn-")) {
					continue
				}
				keys = append(keys, string(pinned.Key()))
				if !bytes.Equal(pinned.Value(), want) {
					t.Fatalf("pinned iterator: %s = %q, want %q", pinned.Key(), pinned.Value(), want)
				}
			}
			if fmt.Sprint(keys) != "[size]" {
				t.Fatalf("pinned iterator scanned %v besides the churn, want [size]", keys)
			}
		})
	}
}

// TestBaseFootprint pins what the base costs in RAM: 100k entries of the
// daemon's shape (a 32-byte path key, a 35-byte record) take at most 128
// heap bytes each once checkpointed, read from runtime.MemStats after GC.
// The log lives on the OS file system, so only the store's heap counts.
func TestBaseFootprint(t *testing.T) {
	fs, err := vfs.NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	db, err := Open(Options{FS: fs, logBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillDaemonShaped(t, db, 0, n)
	if err := db.checkpoint(); err != nil {
		t.Fatal(err)
	}
	perEntry := float64(heap()-before) / n
	if len(db.base.offs) != n {
		t.Fatalf("base holds %d records, want %d", len(db.base.offs), n)
	}
	t.Logf("base: %.1f heap bytes per entry", perEntry)
	if perEntry > 128 {
		t.Fatalf("base takes %.1f heap bytes per entry, want <= 128", perEntry)
	}
}

// fillDaemonShaped puts entries from..to-1 shaped like a daemon's
// metadata: a 32-byte path key and a 35-byte record.
func fillDaemonShaped(tb testing.TB, db *DB, from, to int) {
	rec := make([]byte, 35)
	for i := from; i < to; {
		var b Batch
		for end := min(i+1024, to); i < end; i++ {
			b.PutOwned([]byte(fmt.Sprintf("/job/output/dir/file.%011d", i)), rec)
		}
		if err := db.Apply(&b); err != nil {
			tb.Fatal(err)
		}
	}
}
