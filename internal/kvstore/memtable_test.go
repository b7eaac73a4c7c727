package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

func TestMemTableOrdering(t *testing.T) {
	mt := newMemTable(1)
	keys := []string{"b", "a", "d", "c", "aa"}
	for i, k := range keys {
		mt.add(entry{key: []byte(k), val: []byte{byte(i)}, kind: kindPut})
	}
	var got []string
	for it := mt.iter(); ; {
		if it.n == nil {
			it.seekFirst()
		} else {
			it.next()
		}
		if !it.valid() {
			break
		}
		got = append(got, string(it.cur().key))
	}
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("iteration order %v, want %v", got, want)
	}
}

// TestMemTableRePutReplaces checks that a memtable holds one entry per
// key: a re-put replaces the entry, and the size follows the new value.
func TestMemTableRePutReplaces(t *testing.T) {
	mt := newMemTable(1)
	mt.add(entry{key: []byte("k"), val: []byte("v1"), kind: kindPut})
	mt.add(entry{key: []byte("k"), val: []byte("value2"), kind: kindPut})
	mt.add(entry{key: []byte("k"), val: []byte("v3"), kind: kindPut})
	e, ok := mt.get([]byte("k"))
	if !ok || string(e.val) != "v3" {
		t.Fatalf("get = %q, %v; want v3", e.val, ok)
	}
	if n, size := mt.entries(), mt.sizeBytes(); n != 1 || size != entrySize(&e) {
		t.Fatalf("%d entries of %d bytes, want one of %d", n, size, entrySize(&e))
	}
	mt.add(entry{key: []byte("k"), kind: kindDelete})
	if e, ok := mt.get([]byte("k")); !ok || e.kind != kindDelete || mt.entries() != 1 {
		t.Fatalf("a delete left %+v, %v in %d entries; want the tombstone in one", e, ok, mt.entries())
	}
}

// TestMemTableMergeChainCollection checks that merges collect into the
// key's one entry as they land: a put and two operands in the active
// memtable are one put holding the folded value.
func TestMemTableMergeChainCollection(t *testing.T) {
	db := openTestDB(t, Options{Merger: appendMerger})
	for _, op := range []func() error{
		func() error { return put(db, []byte("k"), []byte("base")) },
		func() error { return merge(db, []byte("k"), []byte("m1")) },
		func() error { return merge(db, []byte("k"), []byte("m2")) },
	} {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	e, ok := db.mem.get([]byte("k"))
	if !ok || e.kind != kindPut || string(e.val) != "basem1m2" || db.mem.entries() != 1 {
		t.Fatalf("memtable holds %+v, %v in %d entries; want one put of basem1m2", e, ok, db.mem.entries())
	}
}

func TestMemTableGetAbsent(t *testing.T) {
	mt := newMemTable(1)
	mt.add(entry{key: []byte("a"), kind: kindPut})
	if e, ok := mt.get([]byte("b")); ok {
		t.Fatalf("absent key returned %+v", e)
	}
}

func TestMemTableRandomizedOrder(t *testing.T) {
	mt := newMemTable(42)
	rnd := rand.New(rand.NewSource(7))
	distinct := map[string]bool{}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%06d", rnd.Intn(10000))
		mt.add(entry{key: []byte(k), kind: kindPut})
		distinct[k] = true
	}
	it := mt.iter()
	it.seekFirst()
	var prev []byte
	count := 0
	for ; it.valid(); it.next() {
		cur := it.cur()
		if prev != nil && bytes.Compare(prev, cur.key) >= 0 {
			t.Fatalf("order violation: %q then %q", prev, cur.key)
		}
		prev = cur.key
		count++
	}
	if count != len(distinct) || mt.entries() != count {
		t.Fatalf("iterated %d entries of %d, want one per distinct key (%d)", count, mt.entries(), len(distinct))
	}
}

func TestMemTableSeek(t *testing.T) {
	mt := newMemTable(1)
	for _, k := range []string{"a", "c", "e"} {
		mt.add(entry{key: []byte(k), kind: kindPut})
	}
	it := mt.iter()
	it.seek([]byte("b"))
	if !it.valid() || !bytes.Equal(it.cur().key, []byte("c")) {
		t.Fatalf("seek(b) landed on %v", it.n)
	}
	it.seek([]byte("z"))
	if it.valid() {
		t.Fatal("seek past end still valid")
	}
}

// TestMemTableNodeFootprint pins a node's tower to its height: one
// allocation per new key, none for a replacement, and nodes averaging at
// most 112 bytes over 1e5 inserts (a fixed tower of skiplistMaxHeight
// pointers made every node 160).
func TestMemTableNodeFootprint(t *testing.T) {
	const n = 100000
	ents := make([]entry, n+2000)
	for i, k := range rand.New(rand.NewSource(1)).Perm(len(ents)) {
		ents[i] = entry{key: []byte(fmt.Sprintf("/dir/file.%08d", k)), kind: kindPut}
	}
	mt := newMemTable(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range ents[:n] {
		mt.add(ents[i])
	}
	runtime.ReadMemStats(&after)
	avg := float64(after.TotalAlloc-before.TotalAlloc) / n
	if avg > 112 {
		t.Errorf("memtable nodes average %.1f bytes, want <= 112", avg)
	}
	t.Logf("memtable nodes average %.1f bytes", avg)
	next := n
	if allocs := testing.AllocsPerRun(1000, func() {
		mt.add(ents[next])
		next++
	}); allocs != 1 {
		t.Errorf("memTable.add of a new key makes %v allocations, want 1", allocs)
	}
	v := []byte("v")
	if allocs := testing.AllocsPerRun(1000, func() {
		next--
		mt.add(entry{key: ents[next].key, val: v, kind: kindPut})
	}); allocs != 0 {
		t.Errorf("memTable.add replacing a key's entry makes %v allocations, want 0", allocs)
	}
}
