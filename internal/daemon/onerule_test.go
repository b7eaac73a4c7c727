package daemon

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
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
	const (
		path     = "/p"
		epoch    = 5 // the daemons' current epoch
		retained = 3 // a committed snapshot's epoch
	)
	file := meta.Metadata{Mode: meta.ModeRegular, Size: 50, CTimeNS: 1, MTimeNS: 2}
	dir := meta.Metadata{Mode: meta.ModeDir, CTimeNS: 1, MTimeNS: 1}
	states := []struct {
		name string
		rec  *meta.VersionedMeta // nil: absent
	}{
		{"absent", nil},
		{"live file", &meta.VersionedMeta{V: []meta.Version{{Epoch: epoch, Meta: file}}}},
		{"live dir", &meta.VersionedMeta{V: []meta.Version{{Epoch: epoch, Meta: dir}}}},
		{"tombstoned", &meta.VersionedMeta{V: []meta.Version{{Epoch: 4, Tombstone: true}, {Epoch: 2, Meta: file}}}},
		{"pinned file", &meta.VersionedMeta{V: []meta.Version{{Epoch: 2, Meta: file}}}},
		{"pinned dir", &meta.VersionedMeta{V: []meta.Version{{Epoch: 2, Meta: dir}}}},
	}
	ops := []struct {
		name string
		op   proto.MetaOp
		want map[string]proto.Errno // by state; absent means OK
	}{
		{"create", proto.MetaOp{Kind: proto.MetaOpCreate, Path: path, Mode: meta.ModeRegular, TimeNS: 9},
			map[string]proto.Errno{"live file": proto.ErrnoExist, "live dir": proto.ErrnoExist, "pinned file": proto.ErrnoExist, "pinned dir": proto.ErrnoExist}},
		{"remove file-only", proto.MetaOp{Kind: proto.MetaOpRemove, Path: path, FileOnly: true},
			map[string]proto.Errno{"absent": proto.ErrnoNotExist, "tombstoned": proto.ErrnoNotExist, "live dir": proto.ErrnoIsDir, "pinned dir": proto.ErrnoIsDir}},
		{"remove any", proto.MetaOp{Kind: proto.MetaOpRemove, Path: path},
			map[string]proto.Errno{"absent": proto.ErrnoNotExist, "tombstoned": proto.ErrnoNotExist}},
		{"truncate", proto.MetaOp{Kind: proto.MetaOpUpdateSize, Path: path, Size: 7, Truncate: true, TimeNS: 9},
			map[string]proto.Errno{"absent": proto.ErrnoNotExist, "tombstoned": proto.ErrnoNotExist, "live dir": proto.ErrnoIsDir, "pinned dir": proto.ErrnoIsDir}},
		{"grow", proto.MetaOp{Kind: proto.MetaOpUpdateSize, Path: path, Size: 70, TimeNS: 9},
			map[string]proto.Errno{"live dir": proto.ErrnoIsDir, "pinned dir": proto.ErrnoIsDir}},
	}
	// prepared returns a daemon at the table's epoch with one committed
	// snapshot and the state's record stored.
	prepared := func(t *testing.T, rec *meta.VersionedMeta) *Daemon {
		d := newTestDaemon(t)
		d.snaps.mu.Lock()
		d.snaps.committed["pin"] = retained
		d.snaps.cur.Store(&epochSlot{epoch: epoch})
		d.storeRetainedLocked()
		d.snaps.mu.Unlock()
		if rec != nil {
			if err := d.db.Put([]byte(path), rec.Encode()); err != nil {
				t.Fatal(err)
			}
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
				single, batch := prepared(t, st.rec), prepared(t, st.rec)
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
				if rs.Errno != proto.OK || ss == nil {
					return
				}
				// The snapshot pinned before the op still sees what it saw.
				vm, err := meta.DecodeVersionedMeta(ss)
				if err != nil {
					t.Fatal(err)
				}
				var wasMD meta.Metadata
				var wasOK bool
				if st.rec != nil {
					wasMD, wasOK = st.rec.At(retained)
				}
				if md, ok := vm.At(retained); md != wasMD || ok != wasOK {
					t.Fatalf("pinned epoch %d saw %+v, %v before and %+v, %v after", retained, wasMD, wasOK, md, ok)
				}
			})
		}
	}
}

// TestSizeGrowRule pins what the shared grow step does in each case the
// relaxed-semantics table names, through the merge operator — the path a
// grow actually commits by — and that folding is transparent: two
// operands in one call, or one call each, leave the same record.
func TestSizeGrowRule(t *testing.T) {
	file := func(size, mtime int64) meta.Metadata {
		return meta.Metadata{Mode: meta.ModeRegular, Size: size, CTimeNS: 1, MTimeNS: mtime}
	}
	full := meta.VersionedMeta{}
	for e := uint64(1); e <= meta.MaxVersions; e++ {
		full.Stamp(e, file(int64(e), int64(e)))
	}
	operand := func(size, mtime int64, epoch uint64) []byte {
		e := rpc.NewEnc(24)
		e.I64(size).I64(mtime).U64(epoch)
		return e.Bytes()
	}
	for _, tc := range []struct {
		name     string
		existing *meta.VersionedMeta // nil: absent
		epoch    uint64
		size     int64
		mtime    int64
		versions int
		want     meta.Metadata // newest version after the grow
	}{
		{"absent", nil, 4, 100, 9, 1, meta.Metadata{Mode: meta.ModeRegular, Size: 100, MTimeNS: 9}},
		{"tombstoned", &meta.VersionedMeta{V: []meta.Version{{Epoch: 3, Tombstone: true}, {Epoch: 1, Meta: file(50, 2)}}},
			3, 100, 9, 2, meta.Metadata{Mode: meta.ModeRegular, Size: 100, MTimeNS: 9}},
		{"tombstoned, newer epoch", &meta.VersionedMeta{V: []meta.Version{{Epoch: 3, Tombstone: true}, {Epoch: 1, Meta: file(50, 2)}}},
			5, 100, 9, 3, meta.Metadata{Mode: meta.ModeRegular, Size: 100, MTimeNS: 9}},
		{"older epoch", &meta.VersionedMeta{V: []meta.Version{{Epoch: 5, Meta: file(50, 20)}}}, 2, 100, 9, 1, file(100, 20)},
		{"same epoch, smaller", &meta.VersionedMeta{V: []meta.Version{{Epoch: 5, Meta: file(500, 2)}}}, 5, 100, 9, 1, file(500, 9)},
		{"newer epoch", &meta.VersionedMeta{V: []meta.Version{{Epoch: 5, Meta: file(50, 2)}}}, 7, 100, 9, 2, file(100, 9)},
		{"newer epoch, full history", &full, meta.MaxVersions + 1, 100, 9, meta.MaxVersions, file(100, 9)},
		{"directory", &meta.VersionedMeta{V: []meta.Version{{Epoch: 5, Meta: meta.Metadata{Mode: meta.ModeDir, CTimeNS: 1, MTimeNS: 2}}}},
			7, 100, 9, 1, meta.Metadata{Mode: meta.ModeDir, CTimeNS: 1, MTimeNS: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stored []byte
			if tc.existing != nil {
				stored = tc.existing.Encode()
			}
			first := operand(tc.size, tc.mtime, tc.epoch)
			merged := sizeMerger(nil, stored, [][]byte{first})
			got, err := meta.DecodeVersionedMeta(merged)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.V) != tc.versions || got.V[0].Tombstone || got.V[0].Meta != tc.want {
				t.Fatalf("grown record = %+v, want %d versions with newest %+v", got.V, tc.versions, tc.want)
			}
			second := operand(tc.size+1, tc.mtime-1, tc.epoch+1)
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
