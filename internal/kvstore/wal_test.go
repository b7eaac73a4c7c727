package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vfs"
)

// newTestWAL starts a log named name in fs.
func newTestWAL(t *testing.T, fs vfs.FS, name string) (vfs.File, *walWriter) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWALWriter(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	return f, w
}

func TestWALRoundTrip(t *testing.T) {
	f, w := newTestWAL(t, vfs.NewMem(), "wal")
	batches := [][]entry{
		{{key: []byte("a"), val: []byte("1"), kind: kindPut}},
		{{key: []byte("b"), kind: kindDelete}, {key: []byte("c"), val: []byte("3"), kind: kindPut}},
	}
	for _, b := range batches {
		if err := w.append(b, true); err != nil {
			t.Fatal(err)
		}
	}

	var got []entry
	if err := replayWAL(f, "wal", true, func(e entry) { got = append(got, e) }); err != nil {
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
	if string(got[2].key) != "c" || got[2].kind != kindPut {
		t.Fatalf("entry 2 = %+v", got[2])
	}
}

func TestWALTornTailIgnored(t *testing.T) {
	f, w := newTestWAL(t, vfs.NewMem(), "wal")
	if err := w.append([]entry{{key: []byte("good"), val: []byte("v"), kind: kindPut}}, true); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: append garbage that looks like a header.
	if _, err := f.Append([]byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}

	var got []entry
	if err := replayWAL(f, "wal", true, func(e entry) { got = append(got, e) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].key) != "good" {
		t.Fatalf("replay = %v, want only the intact record", got)
	}
}

func TestWALCorruptPayloadStopsReplay(t *testing.T) {
	f, w := newTestWAL(t, vfs.NewMem(), "wal")
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
	if err := replayWAL(f, "wal", true, func(e entry) { got = append(got, e) }); err != nil {
		t.Fatal(err)
	}
	if len(got) >= 3 {
		t.Fatalf("corruption not detected; replayed %d records", len(got))
	}
}

// TestWALFormat pins what Open makes of a log's first bytes: a log
// without the magic — the previous format began with a record — fails
// Open with ErrFormat naming it, and stays where it was; so does an empty
// log that another follows; an empty newest log is a crash right after
// its creation, and opens.
func TestWALFormat(t *testing.T) {
	rec := []entry{{key: []byte("k"), val: []byte("v"), kind: kindPut}}
	for _, tc := range []struct {
		name string
		logs func(t *testing.T, fs vfs.FS) // writes wal-000001.log and up
		bad  string                        // the log Open must refuse; "" opens
	}{
		{"no magic", func(t *testing.T, fs vfs.FS) {
			f, err := fs.Create(walName(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := (&walWriter{f: f}).append(rec, true); err != nil {
				t.Fatal(err)
			}
		}, walName(1)},
		{"empty log before another", func(t *testing.T, fs vfs.FS) {
			if _, err := fs.Create(walName(1)); err != nil {
				t.Fatal(err)
			}
			if _, w := newTestWAL(t, fs, walName(2)); w.append(rec, true) != nil {
				t.Fatal("append failed")
			}
		}, walName(1)},
		{"empty newest log", func(t *testing.T, fs vfs.FS) {
			if _, w := newTestWAL(t, fs, walName(1)); w.append(rec, true) != nil {
				t.Fatal("append failed")
			}
			if _, err := fs.Create(walName(2)); err != nil {
				t.Fatal(err)
			}
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := vfs.NewMem()
			tc.logs(t, fs)
			before := logSizes(t, fs)
			db, err := Open(Options{FS: fs})
			if tc.bad == "" {
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				if v, err := db.Get([]byte("k")); err != nil || string(v) != "v" {
					t.Fatalf("Get = %q, %v; want the logged record", v, err)
				}
				return
			}
			if err == nil {
				db.Close()
			}
			if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), tc.bad) {
				t.Fatalf("Open = %v; want ErrFormat naming %s", err, tc.bad)
			}
			if after := logSizes(t, fs); after != before {
				t.Fatalf("logs after the refused Open: %s; before: %s", after, before)
			}
		})
	}
}

// TestWALUndecodableBatchIsDamage: a record whose checksum holds but
// whose batch does not decode — here a merge, a kind the log no longer
// holds — is damage, not a torn tail: Open fails with ErrLogDamaged naming
// the log and the record's offset, and the log stays.
func TestWALUndecodableBatchIsDamage(t *testing.T) {
	fs := vfs.NewMem()
	_, w := newTestWAL(t, fs, walName(1))
	if err := w.append([]entry{{key: []byte("k"), val: []byte("v"), kind: kindPut}}, true); err != nil {
		t.Fatal(err)
	}
	off := int64(len(walMagic)) + w.size
	if err := w.append([]entry{{key: []byte("k"), val: u64(7), kind: kindMerge}}, true); err != nil {
		t.Fatal(err)
	}
	if err := w.append([]entry{{key: []byte("j"), val: []byte("v"), kind: kindPut}}, true); err != nil {
		t.Fatal(err)
	}
	before := logSizes(t, fs)
	db, err := Open(Options{FS: fs, Merger: sizeMax})
	if err == nil {
		db.Close()
	}
	want := fmt.Sprintf("%s: record at offset %d", walName(1), off)
	if !errors.Is(err, ErrLogDamaged) || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open = %v; want ErrLogDamaged at %q", err, want)
	}
	if after := logSizes(t, fs); after != before {
		t.Fatalf("logs after the refused Open: %s; before: %s", after, before)
	}
}

// logSizes lists fs's files with their sizes.
func logSizes(t *testing.T, fs vfs.FS) string {
	t.Helper()
	names, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, n := range names {
		out = append(out, fmt.Sprintf("%s=%d", n, fileSize(t, fs, n)))
	}
	return strings.Join(out, " ")
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
			ops[i] = entry{key: keys[i], val: vals[i], kind: kind(kinds[i] % 2)}
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
