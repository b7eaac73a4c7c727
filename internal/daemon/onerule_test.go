package daemon

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/vfs"
)

// callSingle sends op alone under its kind's own op code and decodes the
// reply as the one result it is.
func callSingle(t *testing.T, d *Daemon, op proto.MetaOp) proto.MetaResult {
	t.Helper()
	e := rpc.NewEnc(64)
	proto.EncodeMetaOpBody(e, &op)
	resp, err := d.Server().Dispatch(rpc.Op(op.Kind), e.Bytes(), nil)
	if err != nil {
		t.Fatalf("single %+v: %v", op, err)
	}
	dec := rpc.NewDec(resp)
	r := proto.DecodeMetaResult(dec, &op)
	if err := dec.Done(); err != nil {
		t.Fatalf("single %+v: reply: %v", op, err)
	}
	return r
}

// TestSingleAndBatchFramingsAgree pins "one rule, one commit path": for
// every mutating operation on every kind of starting record, the
// single-op RPC and an OpBatchMeta of one leave byte-identical stored
// records and return the identical result. It is the test that fails if
// either framing grows a private copy of a rule again. The expected
// errno column keeps the pair from agreeing on a wrong answer.
func TestSingleAndBatchFramingsAgree(t *testing.T) {
	const path = "/p"
	file := meta.Metadata{Mode: meta.ModeRegular, Size: 50, CTimeNS: 1, MTimeNS: 2}
	dir := meta.Metadata{Mode: meta.ModeDir, CTimeNS: 1, MTimeNS: 1}
	states := []struct {
		name string
		rec  *meta.Metadata // nil: absent
		gone bool           // the record was stored, then removed
	}{
		{"absent", nil, false},
		{"live file", &file, false},
		{"live dir", &dir, false},
		{"tombstoned", &file, true},
	}
	ops := []struct {
		name string
		op   proto.MetaOp
		want map[string]proto.Errno // by state; absent means OK
	}{
		{"create", proto.MetaOp{Kind: proto.MetaOpCreate, Path: path, Mode: meta.ModeRegular, TimeNS: 9},
			map[string]proto.Errno{"live file": proto.ErrnoExist, "live dir": proto.ErrnoExist}},
		{"remove file-only", proto.MetaOp{Kind: proto.MetaOpRemove, Path: path, FileOnly: true},
			map[string]proto.Errno{"absent": proto.ErrnoNotExist, "tombstoned": proto.ErrnoNotExist, "live dir": proto.ErrnoIsDir}},
		{"remove any", proto.MetaOp{Kind: proto.MetaOpRemove, Path: path},
			map[string]proto.Errno{"absent": proto.ErrnoNotExist, "tombstoned": proto.ErrnoNotExist}},
		{"truncate", proto.MetaOp{Kind: proto.MetaOpUpdateSize, Path: path, Size: 7, Truncate: true, TimeNS: 9},
			map[string]proto.Errno{"absent": proto.ErrnoNotExist, "tombstoned": proto.ErrnoNotExist, "live dir": proto.ErrnoIsDir}},
		{"grow", proto.MetaOp{Kind: proto.MetaOpUpdateSize, Path: path, Size: 70, TimeNS: 9},
			map[string]proto.Errno{"live dir": proto.ErrnoIsDir}},
	}
	// prepared returns a daemon with the state's record stored: for the
	// tombstoned state the store holds a delete over an earlier record.
	prepared := func(t *testing.T, rec *meta.Metadata, gone bool) *Daemon {
		d := newTestDaemon(t)
		var b kvstore.Batch
		if rec != nil {
			b.PutOwned([]byte(path), rec.Encode())
		}
		if gone {
			b.DeleteOwned([]byte(path))
		}
		if err := d.db.Apply(&b); err != nil {
			t.Fatal(err)
		}
		return d
	}
	stored := func(t *testing.T, d *Daemon) []byte {
		v, err := d.db.Get([]byte(path))
		if errors.Is(err, kvstore.ErrNotFound) {
			return nil
		}
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, st := range states {
		for _, tc := range ops {
			t.Run(st.name+"/"+tc.name, func(t *testing.T) {
				single, batch := prepared(t, st.rec, st.gone), prepared(t, st.rec, st.gone)
				before := stored(t, single)
				rs := callSingle(t, single, tc.op)
				rb := callBatch(t, batch, []proto.MetaOp{tc.op})[0]
				if rs.Errno != rb.Errno || rs.Mode != rb.Mode || rs.Size != rb.Size {
					t.Fatalf("framings answer differently:\n single %+v\n batch  %+v", rs, rb)
				}
				if want := tc.want[st.name]; rs.Errno != want {
					t.Fatalf("errno %d, want %d", rs.Errno, want)
				}
				ss, sb := stored(t, single), stored(t, batch)
				if !bytes.Equal(ss, sb) {
					t.Fatalf("framings leave different records:\n single %x\n batch  %x", ss, sb)
				}
				if rs.Errno != proto.OK && !bytes.Equal(ss, before) {
					t.Fatalf("refused op changed the record: %x -> %x", before, ss)
				}
				if ss != nil {
					if _, err := meta.DecodeMetadata(ss); err != nil {
						t.Fatalf("stored record %x does not decode: %v", ss, err)
					}
				}
			})
		}
	}
}

// TestSizeGrowRule pins what the shared grow step does in each case the
// relaxed-semantics table names, through the store and its merge operator
// — the path a grow actually commits by — and that folding is
// transparent: two operands in one call, or one call each, leave the same
// record.
func TestSizeGrowRule(t *testing.T) {
	file := func(size, mtime int64) meta.Metadata {
		return meta.Metadata{Mode: meta.ModeRegular, Size: size, CTimeNS: 1, MTimeNS: mtime}
	}
	dir := meta.Metadata{Mode: meta.ModeDir, CTimeNS: 1, MTimeNS: 2}
	operand := func(size, mtime int64) []byte {
		e := rpc.NewEnc(16)
		e.I64(size).I64(mtime)
		return e.Bytes()
	}
	for _, tc := range []struct {
		name     string
		existing *meta.Metadata // nil: absent
		gone     bool           // the record was stored, then removed
		size     int64
		mtime    int64
		want     meta.Metadata
	}{
		{"absent", nil, false, 100, 9, meta.Metadata{Mode: meta.ModeRegular, Size: 100, MTimeNS: 9}},
		{"tombstoned", &meta.Metadata{Mode: meta.ModeRegular, Size: 50, CTimeNS: 1, MTimeNS: 2}, true,
			100, 9, meta.Metadata{Mode: meta.ModeRegular, Size: 100, MTimeNS: 9}},
		{"smaller", &meta.Metadata{Mode: meta.ModeRegular, Size: 500, CTimeNS: 1, MTimeNS: 2}, false, 100, 9, file(500, 9)},
		{"larger, older mtime", &meta.Metadata{Mode: meta.ModeRegular, Size: 50, CTimeNS: 1, MTimeNS: 20}, false, 100, 9, file(100, 20)},
		{"directory", &dir, false, 100, 9, dir},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := kvstore.Open(kvstore.Options{FS: vfs.NewMem(), Merger: sizeMerger})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			key := []byte("/g")
			var b kvstore.Batch
			if tc.existing != nil {
				b.PutOwned(key, tc.existing.Encode())
			}
			if tc.gone {
				b.DeleteOwned(key)
			}
			if err := db.Apply(&b); err != nil {
				t.Fatal(err)
			}
			first := operand(tc.size, tc.mtime)
			var grow kvstore.Batch
			grow.MergeOwned(key, bytes.Clone(first))
			if err := db.Apply(&grow); err != nil {
				t.Fatal(err)
			}
			merged, err := db.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			got, err := meta.DecodeMetadata(merged)
			if err != nil {
				t.Fatal(err)
			}
			if len(merged) != 25 || got != tc.want {
				t.Fatalf("grown record = %+v (%d bytes), want %+v in 25", got, len(merged), tc.want)
			}
			var stored []byte
			if tc.existing != nil && !tc.gone {
				stored = tc.existing.Encode()
			}
			second := operand(tc.size+1, tc.mtime-1)
			once := sizeMerger(nil, stored, [][]byte{first, second})
			if steps := sizeMerger(nil, merged, [][]byte{second}); !bytes.Equal(once, steps) {
				t.Fatalf("merging in steps differs from merging at once:\n once  %x\n steps %x", once, steps)
			}
		})
	}
}

// TestBatchGrowVisibleToLaterSubOps pins the one place the transaction's
// copy of the grow rule shows: a stat later in the same batch sees the
// grown state, and it is the state the store resolves to afterwards.
func TestBatchGrowVisibleToLaterSubOps(t *testing.T) {
	d := newTestDaemon(t)
	results := callBatch(t, d, []proto.MetaOp{
		{Kind: proto.MetaOpCreate, Path: "/g", Mode: meta.ModeRegular, TimeNS: 1},
		{Kind: proto.MetaOpUpdateSize, Path: "/g", Size: 300, TimeNS: 2},
		{Kind: proto.MetaOpUpdateSize, Path: "/g", Size: 200, TimeNS: 3},
		{Kind: proto.MetaOpStat, Path: "/g"},
	})
	after := callSingle(t, d, proto.MetaOp{Kind: proto.MetaOpStat, Path: "/g"})
	if results[3].Errno != proto.OK || !bytes.Equal(results[3].Blob, after.Blob) {
		t.Fatalf("in-batch stat %x (errno %d) != committed stat %x", results[3].Blob, results[3].Errno, after.Blob)
	}
	if md, _ := meta.DecodeMetadata(after.Blob); md.Size != 300 || md.MTimeNS != 3 {
		t.Fatalf("grown record = %+v", md)
	}
}
