package kvstore

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/vfs"
)

func TestWALRoundTrip(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := newWALWriter(f)
	batches := [][]entry{
		{{key: []byte("a"), val: []byte("1"), kind: kindPut}},
		{{key: []byte("b"), kind: kindDelete}, {key: []byte("c"), val: []byte("3"), kind: kindMerge}},
	}
	for _, b := range batches {
		if err := w.append(b, true); err != nil {
			t.Fatal(err)
		}
	}

	var got []entry
	if err := replayWAL(f, func(e entry) { got = append(got, e) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d entries, want 3", len(got))
	}
	if string(got[0].key) != "a" || got[0].kind != kindPut {
		t.Fatalf("entry 0 = %+v", got[0])
	}
	if string(got[1].key) != "b" || got[1].kind != kindDelete {
		t.Fatalf("entry 1 = %+v", got[1])
	}
	if string(got[2].key) != "c" || got[2].kind != kindMerge {
		t.Fatalf("entry 2 = %+v", got[2])
	}
}

func TestWALTornTailIgnored(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := newWALWriter(f)
	if err := w.append([]entry{{key: []byte("good"), val: []byte("v"), kind: kindPut}}, true); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: append garbage that looks like a header.
	if _, err := f.Append([]byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}

	var got []entry
	if err := replayWAL(f, func(e entry) { got = append(got, e) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].key) != "good" {
		t.Fatalf("replay = %v, want only the intact record", got)
	}
}

func TestWALCorruptPayloadStopsReplay(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := newWALWriter(f)
	for _, k := range []string{"a", "b", "c"} {
		if err := w.append([]entry{{key: []byte(k), kind: kindPut}}, true); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt one byte in the middle record's payload region.
	sz, _ := f.Size()
	if _, err := f.WriteAt([]byte{0xff}, sz/2); err != nil {
		t.Fatal(err)
	}
	var got []entry
	if err := replayWAL(f, func(e entry) { got = append(got, e) }); err != nil {
		t.Fatal(err)
	}
	if len(got) >= 3 {
		t.Fatalf("corruption not detected; replayed %d records", len(got))
	}
}

func TestBatchEncodeDecodeProperty(t *testing.T) {
	f := func(keys [][]byte, vals [][]byte, kinds []uint8) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		if len(kinds) < n {
			n = len(kinds)
		}
		ops := make([]entry, n)
		for i := 0; i < n; i++ {
			ops[i] = entry{key: keys[i], val: vals[i], kind: kind(kinds[i] % 3)}
		}
		dec, err := decodeBatch(encodeBatch(ops))
		if err != nil || len(dec) != n {
			return false
		}
		for i := range dec {
			if !bytes.Equal(dec[i].key, ops[i].key) || !bytes.Equal(dec[i].val, ops[i].val) {
				return false
			}
			if dec[i].kind != ops[i].kind {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeBatchRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {1}, make([]byte, 11)} {
		if _, err := decodeBatch(b); err == nil {
			t.Errorf("decodeBatch(%v) succeeded", b)
		}
	}
	// Count says 1 op but no payload follows.
	bad := encodeBatch(nil)
	bad[0] = 5
	if _, err := decodeBatch(bad); err == nil {
		t.Error("decodeBatch accepted truncated op list")
	}
}
