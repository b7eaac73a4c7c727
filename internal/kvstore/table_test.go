package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// The in-memory table's own tests: order, one record per key, leaf
// bounds, and leaves loaded from a checkpoint that alias its bytes.

func setPut(tab *table, k, v string) { tab.set(&entry{key: []byte(k), val: []byte(v), kind: kindPut}) }

// checkTable walks every leaf and checks the table's invariants against
// want, the live keys and their values: keys ascend across leaves, no
// leaf is empty, a leaf of two or more records stays within leafBytes,
// each record ends where the next begins, and the counts agree.
func checkTable(tb testing.TB, tab *table, want map[string]string) {
	tb.Helper()
	var keys []string
	var size int64
	for li, l := range tab.leaves {
		if len(l.offs) == 0 || (len(l.offs) > 1 && len(l.buf) > leafBytes) {
			tb.Fatalf("leaf %d holds %d records in %d bytes", li, len(l.offs), len(l.buf))
		}
		if l.offs[0] != 0 {
			tb.Fatalf("leaf %d begins at offset %d", li, l.offs[0])
		}
		for i := range l.offs {
			k, v := l.record(i)
			if end := int(l.offs[i]) + uvarintLen(len(k)) + len(k) + uvarintLen(len(v)) + len(v); end != l.end(i) {
				tb.Fatalf("leaf %d record %d ends at %d, the next begins at %d", li, i, end, l.end(i))
			}
			if n := len(keys); n > 0 && keys[n-1] >= string(k) {
				tb.Fatalf("leaf %d record %d: %q after %q", li, i, k, keys[n-1])
			}
			if w, ok := want[string(k)]; !ok || w != string(v) {
				tb.Fatalf("%q = %q, want %q (live %v)", k, v, w, ok)
			}
			keys = append(keys, string(k))
		}
		size += int64(len(l.buf))
	}
	if len(keys) != len(want) || tab.count != len(keys) || tab.bytes != size {
		tb.Fatalf("%d records (count %d, %d bytes, counted %d), want %d", len(keys), tab.count, size, tab.bytes, len(want))
	}
}

func TestMemTableOrdering(t *testing.T) {
	var tab table
	keys := []string{"b", "a", "d", "c", "aa"}
	want := map[string]string{}
	for i, k := range keys {
		setPut(&tab, k, fmt.Sprint(i))
		want[k] = fmt.Sprint(i)
	}
	checkTable(t, &tab, want)
}

// TestMemTableRePutReplaces checks that the table holds one record per
// key: a re-put replaces the record, the byte count follows the new
// value, and a delete removes it, leaving no tombstone.
func TestMemTableRePutReplaces(t *testing.T) {
	var tab table
	for _, v := range []string{"v1", "value2", "v3"} {
		setPut(&tab, "k", v)
	}
	if v, ok := tab.get([]byte("k")); !ok || string(v) != "v3" {
		t.Fatalf("get = %q, %v; want v3", v, ok)
	}
	checkTable(t, &tab, map[string]string{"k": "v3"})
	tab.set(&entry{key: []byte("k"), kind: kindDelete})
	if _, ok := tab.get([]byte("k")); ok || len(tab.leaves) != 0 {
		t.Fatalf("a delete left the key in %d leaves", len(tab.leaves))
	}
	checkTable(t, &tab, nil)
}

// TestMemTableMergeChainCollection checks that merges collect into the
// key's one record as they land: a put and two operands are one record
// holding the folded value.
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
	checkTable(t, &db.t, map[string]string{"k": "basem1m2"})
}

func TestMemTableGetAbsent(t *testing.T) {
	var tab table
	if _, ok := tab.get([]byte("a")); ok {
		t.Fatal("an empty table returned a key")
	}
	setPut(&tab, "a", "")
	if v, ok := tab.get([]byte("b")); ok {
		t.Fatalf("absent key returned %q", v)
	}
}

// TestMemTableRandomizedOrder drives random puts (values of random
// length, so records grow and shrink in place) and deletes through
// enough keys to split leaves, checking the table against a map; then
// loads the table's checkpoint image into a second table, whose leaves
// alias the image, and goes on writing it, so a leaf that grows out of
// its slice of the image must not reach the next one.
func TestMemTableRandomizedOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	want := map[string]string{}
	churn := func(tab *table, n int) {
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("key-%06d", rnd.Intn(10000))
			if rnd.Intn(4) == 0 {
				tab.set(&entry{key: []byte(k), kind: kindDelete})
				delete(want, k)
				continue
			}
			v := string(bytes.Repeat([]byte{byte('a' + i%26)}, rnd.Intn(200)))
			setPut(tab, k, v)
			want[k] = v
		}
		checkTable(t, tab, want)
	}
	var tab table
	churn(&tab, 8000)
	if len(tab.leaves) < 100 {
		t.Fatalf("%d records in %d leaves: the test does not split leaves", tab.count, len(tab.leaves))
	}

	var loaded table
	walNum, err := loaded.decode(tab.encode(7, nil))
	if err != nil || walNum != 7 {
		t.Fatalf("decode = %d, %v", walNum, err)
	}
	checkTable(t, &loaded, want)
	churn(&loaded, 8000)
}

func TestMemTableSeek(t *testing.T) {
	var tab table
	for _, k := range []string{"a", "c", "e"} {
		setPut(&tab, k, "")
	}
	for _, tc := range []struct {
		key   string
		want  int // index of the first record >= key
		found bool
	}{{"", 0, false}, {"a", 0, true}, {"b", 1, false}, {"e", 2, true}, {"z", 3, false}} {
		li, i, found := tab.search([]byte(tc.key))
		if li != 0 || i != tc.want || found != tc.found {
			t.Errorf("search(%q) = %d, %d, %v; want 0, %d, %v", tc.key, li, i, found, tc.want, tc.found)
		}
	}
	li, i, _ := tab.search([]byte("z"))
	if li, _ = tab.settle(li, i); li != len(tab.leaves) {
		t.Fatalf("a search past the end settles on leaf %d of %d", li, len(tab.leaves))
	}
}
