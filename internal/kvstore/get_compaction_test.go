package kvstore

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/vfs"
)

// hookFS is a vfs.FS whose table files run a hook before a data-block
// read — the seam that lets a test finish a compaction at an exact point
// inside a point lookup. The hook fires once, and only once armed: table
// opens read footer and index under the DB lock, where a compaction
// could not be run.
type hookFS struct {
	vfs.FS
	armed atomic.Bool
	hook  func()
}

func (h *hookFS) Open(name string) (vfs.File, error) {
	f, err := h.FS.Open(name)
	if err != nil || !strings.HasSuffix(name, ".sst") {
		return f, err
	}
	return &hookFile{File: f, fs: h}, nil
}

type hookFile struct {
	vfs.File
	fs *hookFS
}

func (f *hookFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fs.armed.CompareAndSwap(true, false) {
		f.fs.hook()
	}
	return f.File.ReadAt(p, off)
}

// TestPointReadSurvivesCompaction is the regression test for the
// use-after-compaction race: a point read snapshots the current version,
// drops the DB lock, and opens that version's tables one by one; a
// compaction finishing in between used to close and unlink them, and the
// read failed with "file does not exist: sst-N.sst". The key's version
// chain spans two L0 tables (a put, then a merge operand); the hook runs
// a full compaction while the read is inside the newer table, i.e. after
// the version snapshot and before the older table is reached. Every
// point-read entry point goes through the same lookup and is covered.
func TestPointReadSurvivesCompaction(t *testing.T) {
	key := []byte("size")
	reads := map[string]func(*DB) error{
		"Get": func(db *DB) error {
			_, err := db.Get(key)
			return err
		},
		"Has": func(db *DB) error {
			_, err := db.Has(key)
			return err
		},
		"PutIfAbsent": func(db *DB) error {
			_, err := db.PutIfAbsent(key, u64(1))
			return err
		},
		"Update": func(db *DB) error {
			return db.Update(key, func(cur []byte, _ bool) ([]byte, bool, error) { return cur, false, nil })
		},
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			fs := &hookFS{FS: vfs.NewMem()}
			db := openTestDB(t, Options{FS: fs, Merger: sizeMax, tune: flushAt(1 << 10)})
			if err := db.Put(key, u64(100)); err != nil {
				t.Fatal(err)
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := db.Merge(key, u64(300)); err != nil {
				t.Fatal(err)
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			// Warm both table readers, so the armed hook fires in a block
			// read (outside the DB lock) rather than in a table open.
			if _, err := db.Get(key); err != nil {
				t.Fatal(err)
			}
			var compactErr error
			fs.hook = func() { compactErr = db.CompactAll() }
			fs.armed.Store(true)
			if err := read(db); err != nil {
				t.Fatalf("point read across a compaction: %v", err)
			}
			if fs.armed.Load() {
				t.Fatal("hook never fired: the read did not reach a table")
			}
			if compactErr != nil {
				t.Fatalf("compaction inside the read: %v", compactErr)
			}
			// The read's reference only deferred the cleanup: once it
			// returned, the replaced tables are gone and the key resolves
			// from the compacted one.
			names, err := fs.List("")
			if err != nil {
				t.Fatal(err)
			}
			tables := 0
			for _, n := range names {
				if strings.HasSuffix(n, ".sst") {
					tables++
				}
			}
			if tables != 1 {
				t.Fatalf("%d table files after the read, want 1 (obsolete tables leaked): %v", tables, names)
			}
			got, err := db.Get(key)
			if err != nil || string(got) != string(u64(300)) {
				t.Fatalf("value after compaction = %v, %v; want 300", got, err)
			}
		})
	}
}
