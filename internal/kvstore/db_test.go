package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/vfs"
)

func openTestDB(t *testing.T, opts Options) *DB {
	t.Helper()
	if opts.FS == nil {
		opts.FS = vfs.NewMem()
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// put, del and merge commit one op through Apply. Like every caller of
// Batch they hand it buffers of their own: copies of the arguments.
func put(db *DB, key, value []byte) error {
	var b Batch
	b.PutOwned(bytes.Clone(key), bytes.Clone(value))
	return db.Apply(&b)
}

func del(db *DB, key []byte) error {
	var b Batch
	b.DeleteOwned(bytes.Clone(key))
	return db.Apply(&b)
}

func merge(db *DB, key, operand []byte) error {
	var b Batch
	b.MergeOwned(bytes.Clone(key), bytes.Clone(operand))
	return db.Apply(&b)
}

// update stores fn's rewrite of key's value (nil if absent) as the
// daemon's metadata transaction does: LockKeys, Get, Apply.
func update(db *DB, key []byte, fn func(cur []byte) []byte) error {
	defer db.LockKeys([][]byte{key}).Unlock()
	cur, err := db.Get(key)
	if err != nil && !errors.Is(err, ErrNotFound) {
		return err
	}
	var b Batch
	b.PutOwned(bytes.Clone(key), fn(cur))
	return db.Apply(&b)
}

func TestPutGetDelete(t *testing.T) {
	db := openTestDB(t, Options{})
	if err := put(db, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("k"))
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := del(db, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete err = %v", err)
	}
	// Deleting an absent key succeeds.
	if err := del(db, []byte("never")); err != nil {
		t.Fatal(err)
	}
}

func TestOverwrite(t *testing.T) {
	db := openTestDB(t, Options{})
	for i := 0; i < 10; i++ {
		if err := put(db, []byte("k"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, err := db.Get([]byte("k"))
	if err != nil || string(v) != "v9" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

func TestGetMissing(t *testing.T) {
	db := openTestDB(t, Options{})
	if _, err := db.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%d-%d", i, i*7)) }

// TestReadThroughCheckpoint checks that keys stay readable across
// checkpoints: a tiny log forces them, and after a final one the table
// holds one record per key and serves every key.
func TestReadThroughCheckpoint(t *testing.T) {
	db := openTestDB(t, Options{logBytes: 2048})
	const n = 2000
	for i := 0; i < n; i++ {
		if err := put(db, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Checkpoints < 2 {
		t.Fatal("no checkpoint happened despite a tiny log")
	}
	if db.t.count != n {
		t.Fatalf("table holds %d records, want %d", db.t.count, n)
	}
	for i := 0; i < n; i++ {
		v, err := db.Get(key(i))
		if err != nil || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) = %q, %v", i, v, err)
		}
	}
}

// TestCheckpointPreservesData checks what survives checkpoints: a tiny
// log forces them, every overwrite and delete lands in the table, which
// keeps one record per live key and no tombstone, and every key reads
// back through it.
func TestCheckpointPreservesData(t *testing.T) {
	db := openTestDB(t, Options{logBytes: 2048})
	const n = 3000
	for i := 0; i < n; i++ {
		if err := put(db, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite a third, delete a third.
	for i := 0; i < n; i += 3 {
		if err := put(db, key(i), []byte("overwritten")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i += 3 {
		if err := del(db, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Checkpoints < 2 {
		t.Fatal("no checkpoint happened despite a tiny log")
	}
	if live := n - (n+1)/3; db.t.count != live {
		t.Fatalf("table holds %d records, want one per live key (%d)", db.t.count, live)
	}
	for i := 0; i < n; i++ {
		v, err := db.Get(key(i))
		switch i % 3 {
		case 0:
			if err != nil || string(v) != "overwritten" {
				t.Fatalf("Get(%d) = %q, %v", i, v, err)
			}
		case 1:
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key %d resurfaced: %q, %v", i, v, err)
			}
		case 2:
			if err != nil || !bytes.Equal(v, val(i)) {
				t.Fatalf("Get(%d) = %q, %v", i, v, err)
			}
		}
	}
}

// TestCheckpointReclaimsSpace pins the store's steady state on disk:
// CHECKPOINT, at most two logs and CHECKPOINT.tmp only while a checkpoint
// is being written, holding at most twice the live bytes plus two log
// triggers — after 10⁵ overwrites of a fixed key set and after a reopen.
func TestCheckpointReclaimsSpace(t *testing.T) {
	mem := vfs.NewMem()
	opts := Options{FS: mem, logBytes: 4096}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const keys, overwrites = 100, 100_000
	value := func(round int) []byte { return bytes.Repeat([]byte{byte(round)}, 64) }
	live := int64(keys * (2 + len(key(0)) + len(value(0))))
	checkDir := func(phase string, quiet bool) {
		t.Helper()
		names, err := mem.List("")
		if err != nil {
			t.Fatal(err)
		}
		logs := 0
		for _, n := range names {
			switch {
			case strings.HasPrefix(n, "wal-"):
				logs++
			case n == checkpointName, n == checkpointTmp && !quiet:
			default:
				t.Fatalf("%s: unexpected file %s in %v", phase, n, names)
			}
		}
		if logs > 2 {
			t.Fatalf("%s: %d logs on disk: %v", phase, logs, names)
		}
		if !quiet {
			return
		}
		trigger := max(opts.logBytes, db.ckptBytes)
		if total := mem.TotalBytes(); total > 2*live+2*trigger {
			t.Fatalf("%s: %d bytes on disk for %d live, trigger %d", phase, total, live, trigger)
		}
	}
	for i := 0; i < overwrites; i++ {
		if err := put(db, key(i%keys), value(i/keys)); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 0 {
			checkDir(fmt.Sprintf("put %d", i), false)
		}
	}
	db.mu.Lock()
	err = db.waitCheckpointLocked()
	db.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	checkDir("after the overwrites", true)
	if n := db.Stats().Checkpoints; n < 100 {
		t.Fatalf("%d checkpoints over %d overwrites", n, overwrites)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	checkDir("after reopen", true)
	last := value((overwrites - 1) / keys)
	for i := 0; i < keys; i++ {
		if v, err := db.Get(key(i)); err != nil || !bytes.Equal(v, last) {
			t.Fatalf("Get(%d) after reopen = %q, %v", i, v, err)
		}
	}
}

// sizeMax is the merge operator the daemons use: operands are candidate
// sizes; the result is the maximum (encoded little-endian uint64).
func sizeMax(_, existing []byte, operands [][]byte) []byte {
	var max uint64
	if len(existing) == 8 {
		max = binary.LittleEndian.Uint64(existing)
	}
	for _, op := range operands {
		if len(op) == 8 {
			if v := binary.LittleEndian.Uint64(op); v > max {
				max = v
			}
		}
	}
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, max)
	return out
}

func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func TestMergeOperator(t *testing.T) {
	db := openTestDB(t, Options{Merger: sizeMax})
	if err := put(db, []byte("size"), u64(100)); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{50, 300, 200} {
		if err := merge(db, []byte("size"), u64(v)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := db.Get([]byte("size"))
	if err != nil || binary.LittleEndian.Uint64(got) != 300 {
		t.Fatalf("merged = %v, %v; want 300", got, err)
	}
}

func TestMergeWithoutBase(t *testing.T) {
	db := openTestDB(t, Options{Merger: sizeMax})
	if err := merge(db, []byte("k"), u64(7)); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get([]byte("k"))
	if err != nil || binary.LittleEndian.Uint64(got) != 7 {
		t.Fatalf("merge-only key = %v, %v", got, err)
	}
}

func TestMergeAfterDelete(t *testing.T) {
	db := openTestDB(t, Options{Merger: sizeMax})
	if err := put(db, []byte("k"), u64(1000)); err != nil {
		t.Fatal(err)
	}
	if err := del(db, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := merge(db, []byte("k"), u64(5)); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get([]byte("k"))
	if err != nil || binary.LittleEndian.Uint64(got) != 5 {
		t.Fatalf("merge after delete = %v, %v; want 5 (old 1000 must not leak)", got, err)
	}
}

func TestMergeSurvivesCompaction(t *testing.T) {
	db := openTestDB(t, Options{Merger: sizeMax, logBytes: 1024})
	if err := put(db, []byte("size"), u64(1)); err != nil {
		t.Fatal(err)
	}
	var want uint64
	for i := uint64(1); i <= 500; i++ {
		if err := merge(db, []byte("size"), u64(i)); err != nil {
			t.Fatal(err)
		}
		if i > want {
			want = i
		}
		// Interleave unrelated churn to force checkpoints around the merges.
		if err := put(db, key(int(i)), val(int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.checkpoint(); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get([]byte("size"))
	if err != nil || binary.LittleEndian.Uint64(got) != want {
		t.Fatalf("after checkpoint = %v, %v; want %d", got, err, want)
	}
}

// TestMergeRequiresOperator: without a merger a merge is refused, alone or
// in a batch, before anything reaches the log or the table.
func TestMergeRequiresOperator(t *testing.T) {
	fs := vfs.NewMem()
	db := openTestDB(t, Options{FS: fs})
	if err := db.Merge([]byte("k"), []byte("x")); !errors.Is(err, ErrNoMerger) {
		t.Fatalf("Merge: err = %v, want ErrNoMerger", err)
	}
	var b Batch
	b.PutOwned([]byte("p"), []byte("v"))
	b.MergeOwned([]byte("k"), []byte("op"))
	if err := db.Apply(&b); !errors.Is(err, ErrNoMerger) {
		t.Fatalf("Apply of a batch with a merge: err = %v, want ErrNoMerger", err)
	}
	for _, k := range []string{"k", "p"} {
		if v, err := db.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("after the refused batch Get(%s) = %q, %v; want not found", k, v, err)
		}
	}
	if size := fileSize(t, fs, walName(db.walNum)); size != int64(len(walMagic)) {
		t.Fatalf("log holds %d bytes after the refused batch, want only the %d-byte magic", size, len(walMagic))
	}
}

func fileSize(t *testing.T, fs vfs.FS, name string) int64 {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	return size
}

func TestBatchAtomicVisibility(t *testing.T) {
	db := openTestDB(t, Options{})
	var b Batch
	b.PutOwned([]byte("a"), []byte("1"))
	b.PutOwned([]byte("b"), []byte("2"))
	b.DeleteOwned([]byte("a"))
	if b.Len() != 3 {
		t.Fatalf("batch len = %d", b.Len())
	}
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("a")); !errors.Is(err, ErrNotFound) {
		t.Fatal("delete inside batch not applied in order")
	}
	v, err := db.Get([]byte("b"))
	if err != nil || string(v) != "2" {
		t.Fatalf("b = %q, %v", v, err)
	}
	if err := db.Apply(&Batch{}); err != nil {
		t.Fatal("empty batch must be a no-op")
	}
}

func TestIteratorOrderedScan(t *testing.T) {
	db := openTestDB(t, Options{logBytes: 1024})
	const n = 500
	for i := n - 1; i >= 0; i-- {
		if err := put(db, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	i := 0
	for it.SeekFirst(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Key(), key(i)) || !bytes.Equal(it.Value(), val(i)) {
			t.Fatalf("position %d: %q=%q", i, it.Key(), it.Value())
		}
		i++
	}
	if i != n {
		t.Fatalf("scanned %d, want %d", i, n)
	}
}

func TestIteratorSeekAndPrefix(t *testing.T) {
	db := openTestDB(t, Options{})
	paths := []string{"/a/x", "/a/y", "/b/x", "/b/y", "/c/z"}
	for _, p := range paths {
		if err := put(db, []byte(p), []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []string
	for it.Seek([]byte("/b/")); it.Valid() && bytes.HasPrefix(it.Key(), []byte("/b/")); it.Next() {
		got = append(got, string(it.Key()))
	}
	if fmt.Sprint(got) != "[/b/x /b/y]" {
		t.Fatalf("prefix scan = %v", got)
	}
}

func TestIteratorSkipsTombstones(t *testing.T) {
	db := openTestDB(t, Options{logBytes: 512})
	for i := 0; i < 100; i++ {
		if err := put(db, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i += 2 {
		if err := del(db, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	count := 0
	for it.SeekFirst(); it.Valid(); it.Next() {
		n := 0
		fmt.Sscanf(string(it.Key()), "key-%06d", &n)
		if n%2 == 0 {
			t.Fatalf("deleted key %q visible", it.Key())
		}
		count++
	}
	if count != 50 {
		t.Fatalf("scanned %d live keys, want 50", count)
	}
}

func TestIteratorResolvesMerges(t *testing.T) {
	db := openTestDB(t, Options{Merger: sizeMax})
	if err := put(db, []byte("f"), u64(10)); err != nil {
		t.Fatal(err)
	}
	if err := merge(db, []byte("f"), u64(99)); err != nil {
		t.Fatal(err)
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	it.SeekFirst()
	if !it.Valid() || binary.LittleEndian.Uint64(it.Value()) != 99 {
		t.Fatalf("iterator merge resolution = %v", it.Value())
	}
}

func TestWALRecovery(t *testing.T) {
	mem := vfs.NewMem()
	db, err := Open(Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := put(db, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Kill the process: keep every written byte, reopen from the clone.
	crashed := mem.ProcessCrashClone()
	db.Close()

	db2, err := Open(Options{FS: crashed})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < n; i++ {
		v, err := db2.Get(key(i))
		if err != nil || !bytes.Equal(v, val(i)) {
			t.Fatalf("after crash Get(%d) = %q, %v", i, v, err)
		}
	}
}

func TestCrashLosesOnlyUnsyncedTail(t *testing.T) {
	mem := vfs.NewMem()
	db, err := Open(Options{FS: mem}) // appended but not synced
	if err != nil {
		t.Fatal(err)
	}
	if err := put(db, []byte("lost"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	crashed := mem.CrashClone()
	db.Close()

	db2, err := Open(Options{FS: crashed})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Get([]byte("lost")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unsynced write survived crash: %v", err)
	}
}

func TestReopenPersistence(t *testing.T) {
	mem := vfs.NewMem()
	db, err := Open(Options{FS: mem, logBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		if err := put(db, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 5 {
		if err := del(db, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The reopen must load a checkpoint, not only replay the log.
	if db.Stats().Checkpoints == 0 {
		t.Fatal("no checkpoint was written before close")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{FS: mem, logBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < n; i++ {
		v, err := db2.Get(key(i))
		if i%5 == 0 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key %d resurrected after reopen", i)
			}
		} else if err != nil || !bytes.Equal(v, val(i)) {
			t.Fatalf("reopen Get(%d) = %q, %v", i, v, err)
		}
	}
	// A write after the reopen must shadow the checkpoint's record.
	if err := put(db2, key(1), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	v, err := db2.Get(key(1))
	if err != nil || string(v) != "fresh" {
		t.Fatalf("post-reopen write shadowed: %q, %v", v, err)
	}
}

func TestOSBackendEndToEnd(t *testing.T) {
	osfs, err := vfs.NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{FS: osfs, logBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := put(db, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{FS: osfs})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 500; i++ {
		v, err := db2.Get(key(i))
		if err != nil || !bytes.Equal(v, val(i)) {
			t.Fatalf("os backend Get(%d) = %q, %v", i, v, err)
		}
	}
}

func TestPutIfAbsent(t *testing.T) {
	db := openTestDB(t, Options{})
	ok, err := db.PutIfAbsent([]byte("k"), []byte("first"))
	if err != nil || !ok {
		t.Fatalf("first PutIfAbsent = %v, %v", ok, err)
	}
	ok, err = db.PutIfAbsent([]byte("k"), []byte("second"))
	if err != nil || ok {
		t.Fatalf("second PutIfAbsent = %v, %v", ok, err)
	}
	v, _ := db.Get([]byte("k"))
	if string(v) != "first" {
		t.Fatalf("value = %q", v)
	}
	// After delete the key is absent again.
	if err := db.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	ok, err = db.PutIfAbsent([]byte("k"), []byte("third"))
	if err != nil || !ok {
		t.Fatalf("post-delete PutIfAbsent = %v, %v", ok, err)
	}
}

func TestPutIfAbsentRace(t *testing.T) {
	db := openTestDB(t, Options{})
	const workers = 32
	wins := make(chan int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ok, err := db.PutIfAbsent([]byte("contested"), []byte(fmt.Sprintf("w%d", id)))
			if err != nil {
				t.Error(err)
				return
			}
			if ok {
				wins <- id
			}
		}(w)
	}
	wg.Wait()
	close(wins)
	var winners []int
	for id := range wins {
		winners = append(winners, id)
	}
	if len(winners) != 1 {
		t.Fatalf("PutIfAbsent had %d winners, want exactly 1", len(winners))
	}
	v, err := db.Get([]byte("contested"))
	if err != nil || string(v) != fmt.Sprintf("w%d", winners[0]) {
		t.Fatalf("value %q does not match winner %d", v, winners[0])
	}
}

func TestUpdateAtomicCounter(t *testing.T) {
	db := openTestDB(t, Options{})
	const workers, rounds = 16, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				err := update(db, []byte("ctr"), func(cur []byte) []byte {
					var n uint64
					if cur != nil {
						n = binary.LittleEndian.Uint64(cur)
					}
					return u64(n + 1)
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	v, err := db.Get([]byte("ctr"))
	if err != nil || binary.LittleEndian.Uint64(v) != workers*rounds {
		t.Fatalf("counter = %v, %v; want %d", v, err, workers*rounds)
	}
}

func TestConcurrentReadersWriters(t *testing.T) {
	db := openTestDB(t, Options{logBytes: 4096})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := []byte(fmt.Sprintf("w%d-%d", id, i))
				if err := put(db, k, val(i)); err != nil {
					t.Error(err)
					return
				}
				if v, err := db.Get(k); err != nil || !bytes.Equal(v, val(i)) {
					t.Errorf("read own write %q: %q, %v", k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestClosedErrors(t *testing.T) {
	db := openTestDB(t, Options{})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := put(db, []byte("k"), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close = %v", err)
	}
	if _, err := db.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close = %v", err)
	}
	if _, err := db.NewIterator(); !errors.Is(err, ErrClosed) {
		t.Fatalf("NewIterator after close = %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal("double close must be idempotent")
	}
}

// TestModelCheck drives the store and a plain map with the same random
// operation stream across several configurations, then compares full
// scans. This is the store's main correctness net.
func TestModelCheck(t *testing.T) {
	configs := []struct {
		opts Options
		host bool // on the host file system rather than a vfs.Mem
	}{
		{Options{}, false},              // no checkpoint until reopen
		{Options{logBytes: 512}, false}, // constant checkpoints
		{Options{logBytes: 512}, true},  // constant checkpoints, host files
	}
	for ci, cfg := range configs {
		t.Run(fmt.Sprintf("config%d", ci), func(t *testing.T) {
			if cfg.host {
				fs, err := vfs.NewOS(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				cfg.opts.FS = fs
			}
			db := openTestDB(t, cfg.opts)
			model := make(map[string]string)
			rnd := rand.New(rand.NewSource(int64(ci) + 99))
			const ops = 4000
			for i := 0; i < ops; i++ {
				k := fmt.Sprintf("k%03d", rnd.Intn(300))
				switch rnd.Intn(10) {
				case 0, 1, 2:
					if err := del(db, []byte(k)); err != nil {
						t.Fatal(err)
					}
					delete(model, k)
				default:
					v := fmt.Sprintf("v%d", i)
					if err := put(db, []byte(k), []byte(v)); err != nil {
						t.Fatal(err)
					}
					model[k] = v
				}
				if i%377 == 0 {
					// Point-check a random key.
					probe := fmt.Sprintf("k%03d", rnd.Intn(300))
					v, err := db.Get([]byte(probe))
					want, ok := model[probe]
					if ok && (err != nil || string(v) != want) {
						t.Fatalf("op %d: Get(%s) = %q, %v; want %q", i, probe, v, err, want)
					}
					if !ok && !errors.Is(err, ErrNotFound) {
						t.Fatalf("op %d: Get(%s) = %q, %v; want not-found", i, probe, v, err)
					}
				}
			}
			// Full-scan equivalence.
			it, err := db.NewIterator()
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			got := make(map[string]string)
			for it.SeekFirst(); it.Valid(); it.Next() {
				got[string(it.Key())] = string(it.Value())
			}
			if len(got) != len(model) {
				t.Fatalf("scan found %d keys, model has %d", len(got), len(model))
			}
			for k, v := range model {
				if got[k] != v {
					t.Fatalf("key %s: scan %q, model %q", k, got[k], v)
				}
			}
		})
	}
}

func TestStatsCounters(t *testing.T) {
	db := openTestDB(t, Options{Merger: sizeMax})
	if err := put(db, []byte("a"), nil); err != nil {
		t.Fatal(err)
	}
	if err := del(db, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := merge(db, []byte("a"), u64(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("a")); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Puts != 1 || st.Deletes != 1 || st.Merges != 1 || st.Gets != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLargeValues(t *testing.T) {
	db := openTestDB(t, Options{logBytes: 64 << 10})
	big := bytes.Repeat([]byte{0xAB}, 1<<20)
	if err := put(db, []byte("big"), big); err != nil {
		t.Fatal(err)
	}
	if err := db.checkpoint(); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("big"))
	if err != nil || !bytes.Equal(v, big) {
		t.Fatalf("big value corrupted: len=%d, %v", len(v), err)
	}
}

// TestIteratorDuringCheckpoint opens an iterator, rewrites every key
// through a tiny log that checkpoints again and again, and scans: each key
// comes back exactly once, with its old value or its new one.
func TestIteratorDuringCheckpoint(t *testing.T) {
	db := openTestDB(t, Options{logBytes: 1024})
	for i := 0; i < 500; i++ {
		if err := put(db, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := put(db, key(i), []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.checkpoint(); err != nil {
		t.Fatal(err)
	}
	count := 0
	for it.SeekFirst(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Key(), key(count)) {
			t.Fatalf("scan entry %d is %q, want %q", count, it.Key(), key(count))
		}
		if v := it.Value(); !bytes.Equal(v, val(count)) && string(v) != "new" {
			t.Fatalf("%q = %q, a value it never held", it.Key(), v)
		}
		count++
	}
	it.Close()
	if count != 500 {
		t.Fatalf("scanned %d, want 500", count)
	}
	// New reads see the new values.
	v, err := db.Get(key(7))
	if err != nil || string(v) != "new" {
		t.Fatalf("post-checkpoint read = %q, %v", v, err)
	}
}

func TestLockKeysAtomicVsPutIfAbsent(t *testing.T) {
	db := openTestDB(t, Options{})
	// A read-validate-apply sequence under LockKeys must be atomic
	// with respect to concurrent PutIfAbsent on the same keys: exactly
	// one side of each race wins, never both.
	const keys = 200
	keyOf := func(i int) []byte { return []byte(fmt.Sprintf("key-%03d", i)) }
	batchWins := make([]bool, keys)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < keys; i++ {
			k := keyOf(i)
			held := db.LockKeys([][]byte{k})
			if _, err := db.Get(k); errors.Is(err, ErrNotFound) {
				b := &Batch{}
				b.PutOwned(k, []byte("batch"))
				batchWins[i] = true
				if err := db.Apply(b); err != nil {
					t.Error(err)
				}
			}
			held.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		for i := keys - 1; i >= 0; i-- {
			if _, err := db.PutIfAbsent(keyOf(i), []byte("single")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	for i := 0; i < keys; i++ {
		v, err := db.Get(keyOf(i))
		if err != nil {
			t.Fatal(err)
		}
		want := "single"
		if batchWins[i] {
			want = "batch"
		}
		if string(v) != want {
			t.Fatalf("key %d = %q, want %q (winner not exclusive)", i, v, want)
		}
	}
}

// TestReplayIndependentOfMerger: merges acknowledged under one merger
// reopen with the values they were acknowledged with, under a different
// merger and under none — the log holds values, and replay folds nothing.
// A batch's merge folds against the batch's own earlier put.
func TestReplayIndependentOfMerger(t *testing.T) {
	fs := vfs.NewMem()
	db := openTestDB(t, Options{FS: fs, Merger: appendMerger})
	for _, op := range []string{"a", "b", "c"} {
		if err := merge(db, []byte("k"), []byte(op)); err != nil {
			t.Fatal(err)
		}
	}
	var b Batch
	b.PutOwned([]byte("j"), []byte("x"))
	b.MergeOwned([]byte("j"), []byte("y"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	last := func(_, _ []byte, operands [][]byte) []byte { return operands[len(operands)-1] }
	for _, tc := range []struct {
		name   string
		merger MergeOperator
	}{{"same merger", appendMerger}, {"another merger", last}, {"no merger", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			re := openTestDB(t, Options{FS: fs.ProcessCrashClone(), Merger: tc.merger})
			for k, want := range map[string]string{"k": "abc", "j": "xy"} {
				if v, err := re.Get([]byte(k)); err != nil || string(v) != want {
					t.Fatalf("reopened %s = %q, %v; want %q as acknowledged", k, v, err, want)
				}
			}
		})
	}
}

func TestBatchOwnedVariantsRoundTrip(t *testing.T) {
	db := openTestDB(t, Options{Merger: func(_, existing []byte, ops [][]byte) []byte {
		out := append([]byte(nil), existing...)
		for _, op := range ops {
			out = append(out, op...)
		}
		return out
	}})
	if err := put(db, []byte("gone"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	b := &Batch{}
	b.PutOwned([]byte("a"), []byte("1"))
	b.MergeOwned([]byte("a"), []byte("2"))
	b.DeleteOwned([]byte("gone"))
	if b.Len() != 3 {
		t.Fatalf("batch len = %d", b.Len())
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("a"))
	if err != nil || string(v) != "12" {
		t.Fatalf("merged owned batch = %q, %v", v, err)
	}
	if _, err := db.Get([]byte("gone")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("owned delete = %v", err)
	}
	// Apply consumed the batch; an accidental re-Apply is a no-op.
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
}
