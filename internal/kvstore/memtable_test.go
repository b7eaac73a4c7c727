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
		mt.add(entry{key: []byte(k), val: []byte{byte(i)}, seq: uint64(i + 1), kind: kindPut})
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

func TestMemTableVersionsNewestFirst(t *testing.T) {
	mt := newMemTable(1)
	mt.add(entry{key: []byte("k"), val: []byte("v1"), seq: 1, kind: kindPut})
	mt.add(entry{key: []byte("k"), val: []byte("v2"), seq: 2, kind: kindPut})
	mt.add(entry{key: []byte("k"), val: []byte("v3"), seq: 3, kind: kindPut})

	var f chainFold
	if !mt.fold([]byte("k"), 100, &f) || f.seen != 1 || string(f.base.val) != "v3" {
		t.Fatalf("fold = %+v, want single newest v3", f)
	}
	// Snapshot below the newest version sees the older one.
	f.reset()
	if !mt.fold([]byte("k"), 2, &f) || f.seen != 1 || string(f.base.val) != "v2" {
		t.Fatalf("snapshot fold = %+v, want v2", f)
	}
}

func TestMemTableMergeChainCollection(t *testing.T) {
	mt := newMemTable(1)
	mt.add(entry{key: []byte("k"), val: []byte("base"), seq: 1, kind: kindPut})
	mt.add(entry{key: []byte("k"), val: []byte("m1"), seq: 2, kind: kindMerge})
	mt.add(entry{key: []byte("k"), val: []byte("m2"), seq: 3, kind: kindMerge})

	var f chainFold
	if !mt.fold([]byte("k"), 100, &f) || f.seen != 3 {
		t.Fatalf("chain length = %d, want 3 (m2, m1, base)", f.seen)
	}
	if string(f.ops[0].val) != "m2" || string(f.ops[1].val) != "m1" || string(f.base.val) != "base" {
		t.Fatalf("chain = %+v", f)
	}
}

func TestMemTableGetAbsent(t *testing.T) {
	mt := newMemTable(1)
	mt.add(entry{key: []byte("a"), seq: 1, kind: kindPut})
	var f chainFold
	if mt.fold([]byte("b"), 10, &f) || f.seen != 0 {
		t.Fatalf("absent key returned %+v", f)
	}
}

func TestMemTableRandomizedOrder(t *testing.T) {
	mt := newMemTable(42)
	rnd := rand.New(rand.NewSource(7))
	n := 2000
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%06d", rnd.Intn(100000))
		mt.add(entry{key: []byte(k), seq: uint64(i + 1), kind: kindPut})
	}
	it := mt.iter()
	it.seekFirst()
	var prev *entry
	count := 0
	for ; it.valid(); it.next() {
		cur := it.cur()
		if prev != nil && compareEntries(prev, cur) >= 0 {
			t.Fatalf("order violation: %q/%d then %q/%d", prev.key, prev.seq, cur.key, cur.seq)
		}
		cp := *cur
		prev = &cp
		count++
	}
	if count != n {
		t.Fatalf("iterated %d entries, want %d", count, n)
	}
}

func TestMemTableSeek(t *testing.T) {
	mt := newMemTable(1)
	for _, k := range []string{"a", "c", "e"} {
		mt.add(entry{key: []byte(k), seq: 1, kind: kindPut})
	}
	it := mt.iter()
	it.seek(&entry{key: []byte("b"), seq: ^uint64(0)})
	if !it.valid() || !bytes.Equal(it.cur().key, []byte("c")) {
		t.Fatalf("seek(b) landed on %v", it.n)
	}
	it.seek(&entry{key: []byte("z"), seq: ^uint64(0)})
	if it.valid() {
		t.Fatal("seek past end still valid")
	}
}

// TestMemTableNodeFootprint pins a node's tower to its height: one
// allocation per add, and nodes averaging at most 112 bytes over 1e5
// inserts (a fixed tower of skiplistMaxHeight pointers made every node
// 160).
func TestMemTableNodeFootprint(t *testing.T) {
	const n = 100000
	ents := make([]entry, n)
	for i, k := range rand.New(rand.NewSource(1)).Perm(n) {
		ents[i] = entry{key: []byte(fmt.Sprintf("/dir/file.%08d", k)), seq: uint64(i + 1), kind: kindPut}
	}
	mt := newMemTable(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range ents {
		mt.add(ents[i])
	}
	runtime.ReadMemStats(&after)
	avg := float64(after.TotalAlloc-before.TotalAlloc) / n
	if avg > 112 {
		t.Errorf("memtable nodes average %.1f bytes, want <= 112", avg)
	}
	t.Logf("memtable nodes average %.1f bytes", avg)
	seq := uint64(n)
	allocs := testing.AllocsPerRun(1000, func() {
		seq++
		mt.add(entry{key: ents[seq%n].key, seq: seq, kind: kindPut})
	})
	if allocs != 1 {
		t.Errorf("memTable.add makes %v allocations, want 1", allocs)
	}
}
