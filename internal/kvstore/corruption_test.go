package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/vfs"
)

// TestBlockChecksumDetectsCorruption flips a byte inside a data block of
// a flushed table and verifies reads fail loudly instead of returning
// garbage.
func TestBlockChecksumDetectsCorruption(t *testing.T) {
	mem := vfs.NewMem()
	db, err := Open(Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := db.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Find the table file and corrupt a byte early in the data region.
	names, err := mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	var sst string
	for _, n := range names {
		if strings.HasSuffix(n, ".sst") {
			sst = n
			break
		}
	}
	if sst == "" {
		t.Fatal("no sstable produced")
	}
	f, err := mem.Open(sst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, 20); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2, err := Open(Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// Some key in the first block must now fail with a checksum error
	// (not silently return wrong data).
	var sawChecksumErr bool
	for i := 0; i < 200; i++ {
		v, err := db2.Get(key(i))
		if err != nil {
			if strings.Contains(err.Error(), "checksum") {
				sawChecksumErr = true
				break
			}
			if errors.Is(err, ErrNotFound) {
				continue
			}
			t.Fatalf("unexpected error kind: %v", err)
		}
		if !bytes.Equal(v, val(i)) {
			t.Fatalf("corruption returned wrong data for key %d without error", i)
		}
	}
	if !sawChecksumErr {
		t.Fatal("no checksum error surfaced after corrupting a data block")
	}
}

// TestManyReopenCycles puts the store through repeated write/close/open
// cycles, accumulating state across generations of WALs and manifests.
func TestManyReopenCycles(t *testing.T) {
	mem := vfs.NewMem()
	const cycles = 8
	const perCycle = 150
	for c := 0; c < cycles; c++ {
		db, err := Open(Options{FS: mem, tune: flushAt(2048)})
		if err != nil {
			t.Fatalf("cycle %d open: %v", c, err)
		}
		for i := 0; i < perCycle; i++ {
			k := []byte(fmt.Sprintf("cycle-%d-key-%d", c, i))
			if err := db.Put(k, val(i)); err != nil {
				t.Fatal(err)
			}
		}
		// Every earlier cycle's data must still be intact.
		for pc := 0; pc <= c; pc++ {
			for i := 0; i < perCycle; i += 37 {
				k := []byte(fmt.Sprintf("cycle-%d-key-%d", pc, i))
				v, err := db.Get(k)
				if err != nil || !bytes.Equal(v, val(i)) {
					t.Fatalf("cycle %d: lost %s: %q, %v", c, k, v, err)
				}
			}
		}
		if err := db.Close(); err != nil {
			t.Fatalf("cycle %d close: %v", c, err)
		}
	}
}

// TestCrashDuringHeavyWrites crashes mid-stream at several points and
// verifies the store always reopens cleanly with a prefix of the
// acknowledged synced state.
func TestCrashDuringHeavyWrites(t *testing.T) {
	for _, crashAt := range []int{10, 100, 500, 999} {
		mem := vfs.NewMem()
		db, err := Open(Options{FS: mem, SyncWAL: true, tune: flushAt(4096)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= crashAt; i++ {
			if err := db.Put(key(i), val(i)); err != nil {
				t.Fatal(err)
			}
		}
		crashed := mem.CrashClone()
		db.Close()

		db2, err := Open(Options{FS: crashed, SyncWAL: true})
		if err != nil {
			t.Fatalf("crashAt=%d reopen: %v", crashAt, err)
		}
		for i := 0; i <= crashAt; i++ {
			v, err := db2.Get(key(i))
			if err != nil || !bytes.Equal(v, val(i)) {
				t.Fatalf("crashAt=%d: acknowledged key %d lost: %q, %v", crashAt, i, v, err)
			}
		}
		db2.Close()
	}
}

// TestIteratorSeekPropertyAgainstModel cross-checks Seek against a sorted
// model over a store that spans memtable, L0 and deeper levels.
func TestIteratorSeekPropertyAgainstModel(t *testing.T) {
	db := openTestDB(t, Options{tune: &tuning{memTableBytes: 1024, targetFileBytes: 2048, levelBytesBase: 8 << 20, l0CompactTrigger: 4}})
	model := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("k%04d", (i*7919)%1000)
		if err := db.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
		model[k] = true
	}
	for i := 0; i < 1000; i += 3 {
		k := fmt.Sprintf("k%04d", i)
		if err := db.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
		delete(model, k)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}

	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for probe := 0; probe < 1000; probe += 13 {
		target := fmt.Sprintf("k%04d", probe)
		// Model answer: smallest live key >= target.
		want := ""
		for k := range model {
			if k >= target && (want == "" || k < want) {
				want = k
			}
		}
		it.Seek([]byte(target))
		if want == "" {
			if it.Valid() {
				t.Fatalf("Seek(%s): got %q, want exhausted", target, it.Key())
			}
			continue
		}
		if !it.Valid() || string(it.Key()) != want {
			t.Fatalf("Seek(%s): got %q (valid=%v), want %q", target, it.Key(), it.Valid(), want)
		}
	}
}
