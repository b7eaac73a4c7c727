package proto

import (
	"testing"

	"repro/internal/meta"
	"repro/internal/rpc"
)

// The fuzz harnesses drive the two decoders that parse daemon-supplied
// byte counts with arbitrary frames. The properties under test are the
// wrap-proof discipline gkfs-vet's framebound analyzer enforces
// statically: no panic, no allocation larger than the frame that claimed
// it, errors always poison the decoder instead of fabricating values,
// and every accepted frame re-encodes to an identical decode
// (canonicalization).

// FuzzDecodeFrame throws hostile frames at the span decoder.
func FuzzDecodeFrame(f *testing.F) {
	e := rpc.NewEnc(32)
	EncodeSpans(e, []ChunkSpan{{ID: 1, Off: 2, Len: 3}, {ID: 9, Off: 0, Len: 1 << 20}})
	valid := e.Bytes()
	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:len(valid)-4]...))

	absurd := rpc.NewEnc(8)
	absurd.U32(1 << 30)
	f.Add(absurd.Bytes())

	negative := rpc.NewEnc(32)
	negative.U32(1)
	negative.U64(7).I64(-1).I64(4)
	f.Add(negative.Bytes())

	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := rpc.NewDec(data)
		spans := DecodeSpans(d)
		if int64(len(spans))*spanWireBytes > int64(len(data)) {
			t.Fatalf("decoded %d spans from a %d-byte frame", len(spans), len(data))
		}
		if d.Err() != nil {
			if spans != nil {
				t.Fatal("poisoned decode still returned spans")
			}
			return
		}
		for _, s := range spans {
			if s.Off < 0 || s.Len < 0 {
				t.Fatalf("negative span %+v survived decode", s)
			}
		}
		re := rpc.NewEnc(len(data))
		EncodeSpans(re, spans)
		rd := rpc.NewDec(re.Bytes())
		got := DecodeSpans(rd)
		if rd.Done() != nil || len(got) != len(spans) {
			t.Fatalf("re-encode of %d spans decoded to %d, err %v", len(spans), len(got), rd.Done())
		}
		for i := range got {
			if got[i] != spans[i] {
				t.Fatalf("span %d changed across re-encode: %+v != %+v", i, got[i], spans[i])
			}
		}
	})
}

// FuzzDecodeBatchMeta throws hostile frames at the batch sub-op decoder.
func FuzzDecodeBatchMeta(f *testing.F) {
	e := rpc.NewEnc(64)
	EncodeMetaOps(e, sampleMetaOps())
	valid := e.Bytes()
	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:len(valid)/2]...))

	absurd := rpc.NewEnc(8)
	absurd.U32(1 << 30)
	f.Add(absurd.Bytes())

	overCap := rpc.NewEnc(8)
	overCap.U32(MaxBatchOps + 1)
	f.Add(append(overCap.Bytes(), make([]byte, 64)...))

	badKind := rpc.NewEnc(16)
	badKind.U32(1).U8(200)
	badKind.Str("/x")
	f.Add(badKind.Bytes())

	negSize := rpc.NewEnc(32)
	negSize.U32(1).U8(uint8(MetaOpUpdateSize))
	negSize.Str("/x")
	negSize.I64(-5).U8(1).I64(0)
	f.Add(negSize.Bytes())

	// The stat sub-op's [u8 flags][u64 epoch] tail: pinned, pinned with
	// only half an epoch, and flag bits no generation defined.
	pinned := rpc.NewEnc(32)
	pinned.U32(1).U8(uint8(MetaOpStat))
	pinned.Str("/x")
	pinned.U8(StatAtEpoch | StatWantVersions).U64(7)
	f.Add(pinned.Bytes())
	f.Add(append([]byte(nil), pinned.Bytes()[:len(pinned.Bytes())-4]...))
	unknownBits := rpc.NewEnc(32)
	unknownBits.U32(1).U8(uint8(MetaOpStat))
	unknownBits.Str("/x")
	unknownBits.U8(0xF0 | StatAtEpoch).U64(7)
	f.Add(unknownBits.Bytes())
	// Unknown bits in a flags byte the op does not keep (found by this
	// target): the op is marked Inval and cannot be re-encoded as it was.
	f.Add([]byte("\x01\x00\x00\x00\x05\x020000000000000000000"))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := rpc.NewDec(data)
		ops := DecodeMetaOps(d)
		if len(ops) > MaxBatchOps {
			t.Fatalf("decoded %d ops, above MaxBatchOps", len(ops))
		}
		if d.Err() != nil {
			if ops != nil {
				t.Fatal("poisoned decode still returned ops")
			}
			return
		}
		for _, op := range ops {
			if op.Kind < MetaOpCreate || op.Kind > MetaOpUpdateSize {
				t.Fatalf("unknown kind %d survived decode", op.Kind)
			}
			if !op.Inval && (op.Kind == MetaOpUpdateSize && op.Size < 0 ||
				op.Kind == MetaOpCreate && !op.Mode.Valid() ||
				op.Kind == MetaOpStat && op.Flags&^(StatAtEpoch|StatWantVersions) != 0) {
				t.Fatalf("out-of-domain op %+v not marked Inval", op)
			}
			if op.Kind == MetaOpStat && op.Flags&StatAtEpoch == 0 && op.Epoch != meta.LiveEpoch {
				t.Fatalf("unpinned stat decoded to epoch %d, want LiveEpoch", op.Epoch)
			}
		}
		// Canonicalization holds for every op the encoder can express: an
		// op marked Inval carried a value no client can build (its unknown
		// flag bits are not kept), so only the others round-trip.
		valid := ops[:0:0]
		for _, op := range ops {
			if !op.Inval {
				valid = append(valid, op)
			}
		}
		re := rpc.NewEnc(len(data))
		EncodeMetaOps(re, valid)
		rd := rpc.NewDec(re.Bytes())
		got := DecodeMetaOps(rd)
		if rd.Done() != nil || len(got) != len(valid) {
			t.Fatalf("re-encode of %d ops decoded to %d, err %v", len(valid), len(got), rd.Done())
		}
		for i := range got {
			if got[i] != valid[i] {
				t.Fatalf("op %d changed across re-encode: %+v != %+v", i, got[i], valid[i])
			}
		}
	})
}
