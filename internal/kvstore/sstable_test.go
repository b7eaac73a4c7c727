package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/vfs"
)

func buildTestTable(t *testing.T, ents []entry, blockBytes int) *sstReader {
	t.Helper()
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	w := newSSTWriter(f, 1)
	for i := range ents {
		if err := w.add(&ents[i], blockBytes); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := w.finish(10)
	if err != nil {
		t.Fatal(err)
	}
	r, err := openSSTReader(f, meta)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSSTableRoundTrip(t *testing.T) {
	var ents []entry
	for i := 0; i < 500; i++ {
		ents = append(ents, entry{
			key:  []byte(fmt.Sprintf("key-%05d", i)),
			val:  []byte(fmt.Sprintf("val-%d", i)),
			seq:  uint64(1000 + i),
			kind: kindPut,
		})
	}
	r := buildTestTable(t, ents, 256) // small blocks force many index entries

	if r.meta.entries != 500 {
		t.Fatalf("entries = %d", r.meta.entries)
	}
	if string(r.meta.smallest) != "key-00000" || string(r.meta.largest) != "key-00499" {
		t.Fatalf("bounds = %q..%q", r.meta.smallest, r.meta.largest)
	}

	for i := 0; i < 500; i += 37 {
		key := []byte(fmt.Sprintf("key-%05d", i))
		var f chainFold
		closed, err := r.fold(key, ^uint64(0), &f)
		if err != nil {
			t.Fatal(err)
		}
		if !closed || f.seen != 1 || string(f.base.val) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("fold(%q) = %+v", key, f)
		}
	}
	var f chainFold
	if closed, _ := r.fold([]byte("nope"), ^uint64(0), &f); closed || f.seen != 0 {
		t.Fatalf("absent key returned %+v", f)
	}
}

func TestSSTableIterFullScan(t *testing.T) {
	var ents []entry
	for i := 0; i < 300; i++ {
		ents = append(ents, entry{key: []byte(fmt.Sprintf("%04d", i)), seq: uint64(i + 1), kind: kindPut})
	}
	r := buildTestTable(t, ents, 128)
	it := r.iter()
	n := 0
	var prev []byte
	for it.seekFirst(); it.valid(); it.next() {
		if prev != nil && bytes.Compare(prev, it.cur().key) >= 0 {
			t.Fatalf("order violation at %q", it.cur().key)
		}
		prev = append(prev[:0], it.cur().key...)
		n++
	}
	if it.err != nil {
		t.Fatal(it.err)
	}
	if n != 300 {
		t.Fatalf("scanned %d, want 300", n)
	}
}

func TestSSTableIterSeek(t *testing.T) {
	var ents []entry
	for i := 0; i < 100; i += 2 { // even keys only
		ents = append(ents, entry{key: []byte(fmt.Sprintf("%04d", i)), seq: 1, kind: kindPut})
	}
	r := buildTestTable(t, ents, 64)
	it := r.iter()
	it.seek(&entry{key: []byte("0013"), seq: ^uint64(0)})
	if !it.valid() || string(it.cur().key) != "0014" {
		t.Fatalf("seek(0013) -> %v", it.valid())
	}
	it.seek(&entry{key: []byte("9999"), seq: ^uint64(0)})
	if it.valid() {
		t.Fatal("seek past end valid")
	}
	it.seek(&entry{key: []byte(""), seq: ^uint64(0)})
	if !it.valid() || string(it.cur().key) != "0000" {
		t.Fatal("seek to start failed")
	}
}

func TestSSTableVersionRunAcrossBlocks(t *testing.T) {
	// Many versions of one key with tiny blocks: the version run spans
	// blocks, and fold must keep collecting merge operands across block
	// boundaries.
	var ents []entry
	for seq := 50; seq >= 2; seq-- {
		ents = append(ents, entry{key: []byte("k"), val: []byte{byte(seq)}, seq: uint64(seq), kind: kindMerge})
	}
	ents = append(ents, entry{key: []byte("k"), val: []byte("base"), seq: 1, kind: kindPut})
	r := buildTestTable(t, ents, 32)
	var f chainFold
	closed, err := r.fold([]byte("k"), ^uint64(0), &f)
	if err != nil {
		t.Fatal(err)
	}
	if f.seen != 50 || len(f.ops) != 49 {
		t.Fatalf("collected %d versions, want 50 (49 merges + base)", f.seen)
	}
	if !closed || f.base.kind != kindPut {
		t.Fatal("chain did not terminate at the base put")
	}
}

func TestSSTableRejectsOutOfOrder(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	w := newSSTWriter(f, 1)
	if err := w.add(&entry{key: []byte("b"), seq: 1, kind: kindPut}, 4096); err != nil {
		t.Fatal(err)
	}
	if err := w.add(&entry{key: []byte("a"), seq: 2, kind: kindPut}, 4096); err == nil {
		t.Fatal("out-of-order key accepted")
	}
	// Same key must order by descending seq: seq 1 then seq 2 is invalid.
	f2, _ := fs.Create("t2.sst")
	w2 := newSSTWriter(f2, 2)
	if err := w2.add(&entry{key: []byte("k"), seq: 1, kind: kindPut}, 4096); err != nil {
		t.Fatal(err)
	}
	if err := w2.add(&entry{key: []byte("k"), seq: 2, kind: kindPut}, 4096); err == nil {
		t.Fatal("ascending seq for same key accepted")
	}
}

func TestSSTableBadMagic(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("bad.sst")
	if _, err := f.Append(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := openSSTReader(f, tableMeta{num: 9}); err == nil {
		t.Fatal("opened garbage as sstable")
	}
}

func TestSSTableSnapshotGet(t *testing.T) {
	ents := []entry{
		{key: []byte("k"), val: []byte("new"), seq: 10, kind: kindPut},
		{key: []byte("k"), val: []byte("old"), seq: 5, kind: kindPut},
	}
	r := buildTestTable(t, ents, 4096)
	var f chainFold
	closed, err := r.fold([]byte("k"), 7, &f)
	if err != nil || !closed || f.seen != 1 || string(f.base.val) != "old" {
		t.Fatalf("snapshot fold = %+v, %v; want old", f, err)
	}
	f.reset()
	closed, err = r.fold([]byte("k"), 4, &f)
	if err != nil || closed || f.seen != 0 {
		t.Fatalf("pre-creation snapshot returned %+v", f)
	}
}
