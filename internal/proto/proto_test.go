package proto

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/meta"
	"repro/internal/rpc"
)

// TestErrnoTableClosed pins the errno codec closed: every wire code below
// the sentinel decodes to an error, and that error — bare or wrapped, as
// handlers return it — encodes back to the same code.
func TestErrnoTableClosed(t *testing.T) {
	for e := OK + 1; e < errnoEnd; e++ {
		err := e.Err()
		if err == nil {
			t.Errorf("errno %d has no entry in errnoErrs", e)
			continue
		}
		if got := ErrnoOf(err); got != e {
			t.Errorf("errno %d decodes to %v, which encodes as %d", e, err, got)
		}
		if got := ErrnoOf(fmt.Errorf("op: %w", err)); got != e {
			t.Errorf("errno %d: wrapped %v encodes as %d", e, err, got)
		}
	}
}

func TestErrnoRoundTrip(t *testing.T) {
	if ErrnoOf(nil) != OK {
		t.Error("ErrnoOf(nil) != OK")
	}
	if OK.Err() != nil {
		t.Error("OK.Err() != nil")
	}
	if Errno(999).Err() == nil {
		t.Error("unknown errno must map to an error")
	}
	if ErrnoOf(errors.New("weird")) != ErrnoInval {
		t.Error("unknown error must map to ErrnoInval")
	}
}

func TestSpanCodecProperty(t *testing.T) {
	f := func(ids []uint32, offs []uint16, lens []uint16) bool {
		n := len(ids)
		if len(offs) < n {
			n = len(offs)
		}
		if len(lens) < n {
			n = len(lens)
		}
		spans := make([]ChunkSpan, n)
		var want int64
		for i := 0; i < n; i++ {
			spans[i] = ChunkSpan{ID: meta.ChunkID(ids[i]), Off: int64(offs[i]), Len: int64(lens[i])}
			want += int64(lens[i])
		}
		e := rpc.NewEnc(16)
		EncodeSpans(e, spans)
		d := rpc.NewDec(e.Bytes())
		got := DecodeSpans(d)
		if d.Done() != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != spans[i] {
				return false
			}
		}
		return SpanBytes(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeSpansTruncated(t *testing.T) {
	e := rpc.NewEnc(16)
	EncodeSpans(e, []ChunkSpan{{ID: 1, Off: 2, Len: 3}})
	full := e.Bytes()
	d := rpc.NewDec(full[:len(full)-4])
	DecodeSpans(d)
	if d.Err() == nil {
		t.Fatal("truncated span list decoded cleanly")
	}
}

func sampleMetaOps() []MetaOp {
	return []MetaOp{
		{Kind: MetaOpCreate, Path: "/a", Mode: meta.ModeRegular, TimeNS: 42},
		{Kind: MetaOpCreate, Path: "/d", Mode: meta.ModeDir, TimeNS: 43},
		{Kind: MetaOpStat, Path: "/a", Epoch: meta.LiveEpoch},
		{Kind: MetaOpStat, Path: "/a", Flags: StatAtEpoch | StatWantVersions, Epoch: 7},
		{Kind: MetaOpRemove, Path: "/a", FileOnly: true},
		{Kind: MetaOpRemove, Path: "/d"},
		{Kind: MetaOpUpdateSize, Path: "/a", Size: 1 << 30, TimeNS: 44},
		{Kind: MetaOpUpdateSize, Path: "/a", Size: 7, Truncate: true, TimeNS: 45},
	}
}

func TestMetaOpsRoundTrip(t *testing.T) {
	ops := sampleMetaOps()
	e := rpc.NewEnc(64)
	EncodeMetaOps(e, ops)
	d := rpc.NewDec(e.Bytes())
	got := DecodeMetaOps(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Errorf("op %d = %+v, want %+v", i, got[i], ops[i])
		}
	}
}

func TestMetaOpsHostileFrames(t *testing.T) {
	// A claimed count far beyond what the remaining bytes could hold must
	// poison the decoder before any allocation.
	e := rpc.NewEnc(8)
	e.U32(1 << 30)
	d := rpc.NewDec(e.Bytes())
	if DecodeMetaOps(d); d.Err() == nil {
		t.Fatal("absurd op count decoded cleanly")
	}

	// Counts above the batch cap are refused even when the bytes exist.
	e = rpc.NewEnc(8)
	e.U32(MaxBatchOps + 1)
	d = rpc.NewDec(append(e.Bytes(), make([]byte, 3*(MaxBatchOps+1))...))
	if DecodeMetaOps(d); d.Err() == nil {
		t.Fatal("over-cap op count decoded cleanly")
	}

	// Unknown kinds poison the decoder.
	e = rpc.NewEnc(8)
	e.U32(1).U8(200)
	e.Str("/x")
	d = rpc.NewDec(e.Bytes())
	if DecodeMetaOps(d); d.Err() == nil {
		t.Fatal("unknown op kind decoded cleanly")
	}

	// Field values outside an op's domain do not poison the frame — its
	// batchmates are innocent — but mark the op for an ErrnoInval answer:
	// a mode that is no object kind, a negative size, unknown flag bits.
	for name, body := range map[string]func(e *rpc.Enc){
		"create mode 0xF5":      func(e *rpc.Enc) { e.U8(uint8(MetaOpCreate)).Str("/x").U8(0xF5).I64(1) },
		"update-size negative":  func(e *rpc.Enc) { e.U8(uint8(MetaOpUpdateSize)).Str("/x").I64(-5).U8(1).I64(0) },
		"update-size flag 3":    func(e *rpc.Enc) { e.U8(uint8(MetaOpUpdateSize)).Str("/x").I64(5).U8(3).I64(0) },
		"remove flag 2":         func(e *rpc.Enc) { e.U8(uint8(MetaOpRemove)).Str("/x").U8(2) },
		"stat unknown flag bit": func(e *rpc.Enc) { e.U8(uint8(MetaOpStat)).Str("/x").U8(0x80) },
	} {
		e = rpc.NewEnc(32)
		e.U32(1)
		body(e)
		d = rpc.NewDec(e.Bytes())
		ops := DecodeMetaOps(d)
		if err := d.Done(); err != nil || len(ops) != 1 || !ops[0].Inval {
			t.Fatalf("%s: decoded %+v, %v; want one op marked Inval", name, ops, err)
		}
	}

	// A stat that announces an epoch must carry all eight bytes of it.
	e = rpc.NewEnc(16)
	e.U32(1).U8(uint8(MetaOpStat)).Str("/x").U8(StatAtEpoch).U32(7)
	d = rpc.NewDec(e.Bytes())
	if DecodeMetaOps(d); d.Err() == nil {
		t.Fatal("stat with a truncated epoch decoded cleanly")
	}

	// Truncated mid-op frames error instead of fabricating ops.
	e = rpc.NewEnc(16)
	EncodeMetaOps(e, sampleMetaOps())
	full := e.Bytes()
	for _, cut := range []int{1, len(full) / 2, len(full) - 1} {
		d = rpc.NewDec(full[:cut])
		if ops := DecodeMetaOps(d); d.Err() == nil && len(ops) == len(sampleMetaOps()) {
			t.Fatalf("cut at %d decoded a full vector", cut)
		}
	}
}

func TestMetaResultsRoundTrip(t *testing.T) {
	ops := sampleMetaOps()
	md := meta.Metadata{Mode: meta.ModeRegular, Size: 9, CTimeNS: 1, MTimeNS: 2}
	results := []MetaResult{
		{Errno: ErrnoExist},
		{},
		{Blob: md.Encode()},
		{Blob: md.Encode(), Versions: []meta.Version{{Epoch: 7, Meta: md}, {Epoch: 3, Tombstone: true}}},
		{Mode: meta.ModeRegular, Size: 512},
		{Errno: ErrnoIsDir},
		{},
		{Errno: ErrnoNotExist},
	}
	e := rpc.NewEnc(64)
	EncodeMetaResults(e, ops, results)
	d := rpc.NewDec(e.Bytes())
	got := DecodeMetaResults(d, ops)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if got[i].Errno != results[i].Errno || got[i].Mode != results[i].Mode || got[i].Size != results[i].Size {
			t.Errorf("result %d = %+v, want %+v", i, got[i], results[i])
		}
	}
	if dec, err := meta.DecodeMetadata(got[2].Blob); err != nil || dec != md {
		t.Errorf("stat blob = %+v, %v", dec, err)
	}
	if !reflect.DeepEqual(got[3].Versions, results[3].Versions) || got[2].Versions != nil {
		t.Errorf("stat versions = %+v / %+v, want %+v / none", got[3].Versions, got[2].Versions, results[3].Versions)
	}

	// A reply whose count disagrees with the request poisons the decoder.
	d = rpc.NewDec(e.Bytes())
	if DecodeMetaResults(d, ops[:3]); d.Err() == nil {
		t.Fatal("count mismatch decoded cleanly")
	}
}
