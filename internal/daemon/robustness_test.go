package daemon

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// TestHandlersSurviveGarbageRequests feeds random bytes to every
// registered operation: handlers must return errors, never panic and
// never corrupt the daemon (a follow-up valid request still works).
// Daemons face whatever arrives on the wire; decode failures must be
// contained.
func TestHandlersSurviveGarbageRequests(t *testing.T) {
	d := newTestDaemon(t)
	ops := []rpc.Op{
		proto.OpPing, proto.OpCreate, proto.OpStat, proto.OpRemoveMeta,
		proto.OpUpdateSize, proto.OpWriteChunks, proto.OpReadChunks,
		proto.OpRemoveChunks, proto.OpTruncateChunks, proto.OpReadDir, proto.OpStats,
		proto.OpBatchMeta,
	}
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		op := ops[rnd.Intn(len(ops))]
		payload := make([]byte, rnd.Intn(64))
		rnd.Read(payload)
		var bulk rpc.Bulk
		if rnd.Intn(2) == 0 {
			b := make([]byte, rnd.Intn(256))
			bulk = rpc.SliceBulk(b)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("op %d panicked on %v: %v", op, payload, r)
				}
			}()
			// Errors are expected; panics and hangs are not.
			_, _ = d.Server().Dispatch(op, payload, bulk)
		}()
	}
	// The daemon still serves valid traffic.
	if _, err := call(t, d, proto.OpPing, nil, nil); err != nil {
		t.Fatalf("daemon wedged after garbage: %v", err)
	}
	// Well-framed requests whose field values are garbage.
	t.Run("out-of-domain fields", probeOutOfDomainFields)
}

// probeOutOfDomainFields pins the three defects the twin handlers had
// drifted into, on both framings: an out-of-domain field answers
// ErrnoInval and leaves no trace.
func probeOutOfDomainFields(t *testing.T) {
	// raw builds request bodies the typed encoder cannot express.
	create := func(mode uint8) func(e *rpc.Enc) { return func(e *rpc.Enc) { e.Str("/v").U8(mode).I64(1) } }
	updateSize := func(size int64, flags uint8) func(e *rpc.Enc) {
		return func(e *rpc.Enc) { e.Str("/v").I64(size).U8(flags).I64(2) }
	}
	// send delivers body under either framing and returns the op's errno.
	send := func(t *testing.T, d *Daemon, batch bool, kind proto.MetaOpKind, body func(e *rpc.Enc)) proto.Errno {
		e := rpc.NewEnc(64)
		op := rpc.Op(kind)
		if batch {
			e.U32(1).U8(uint8(kind))
			op = proto.OpBatchMeta
		}
		body(e)
		resp, err := d.Server().Dispatch(op, e.Bytes(), nil)
		if err != nil {
			t.Fatalf("dispatch: %v", err)
		}
		dec := rpc.NewDec(resp)
		if batch {
			if errno := proto.Errno(dec.U16()); errno != proto.OK {
				t.Fatalf("batch reply errno %d", errno)
			}
			if n := dec.U32(); n != 1 {
				t.Fatalf("batch reply carries %d results", n)
			}
		}
		return proto.Errno(dec.U16())
	}
	statSize := func(t *testing.T, d *Daemon) (int64, proto.Errno) {
		r := callSingle(t, d, proto.MetaOp{Kind: proto.MetaOpStat, Path: "/v"})
		md, _ := meta.DecodeMetadata(r.Blob)
		return md.Size, r.Errno
	}
	for _, batch := range []bool{false, true} {
		t.Run(fmt.Sprintf("batch=%v", batch), func(t *testing.T) {
			d := newTestDaemon(t)
			// Mode 0xF5 is no object kind: at the parent commit the create
			// succeeded and every later stat rejected the record as malformed.
			if errno := send(t, d, batch, proto.MetaOpCreate, create(0xF5)); errno != proto.ErrnoInval {
				t.Fatalf("create with mode 0xF5: errno %d, want ErrnoInval", errno)
			}
			if _, errno := statSize(t, d); errno != proto.ErrnoNotExist {
				t.Fatalf("stat after refused create: errno %d, want ErrnoNotExist", errno)
			}
			if errno := send(t, d, batch, proto.MetaOpCreate, create(uint8(meta.ModeRegular))); errno != proto.OK {
				t.Fatalf("valid create: errno %d", errno)
			}
			if errno := send(t, d, batch, proto.MetaOpUpdateSize, updateSize(40, 0)); errno != proto.OK {
				t.Fatalf("valid grow: errno %d", errno)
			}
			// Truncate to -5: the single-op handler stored it.
			if errno := send(t, d, batch, proto.MetaOpUpdateSize, updateSize(-5, proto.UpdateSizeTruncate)); errno != proto.ErrnoInval {
				t.Fatalf("truncate to -5: errno %d, want ErrnoInval", errno)
			}
			// Flag byte 3: one twin read it as a grow (== 1), the other as
			// a truncate (& 1).
			if errno := send(t, d, batch, proto.MetaOpUpdateSize, updateSize(5, 3)); errno != proto.ErrnoInval {
				t.Fatalf("update-size with flag byte 3: errno %d, want ErrnoInval", errno)
			}
			if size, errno := statSize(t, d); errno != proto.OK || size != 40 {
				t.Fatalf("size after refused updates = %d (errno %d), want 40", size, errno)
			}
		})
	}
}

// TestSpanLimitsSane verifies a write RPC claiming an enormous span count
// with a tiny payload is rejected cleanly rather than allocating the
// claimed space from the length field alone.
func TestSpanLimitsSane(t *testing.T) {
	d := newTestDaemon(t)
	e := rpc.NewEnc(32)
	e.Str("/x")
	e.U32(1 << 30) // claimed span count, no span data follows
	if _, err := d.Server().Dispatch(proto.OpWriteChunks, e.Bytes(), rpc.SliceBulk(make([]byte, 8))); err == nil {
		t.Fatal("absurd span count accepted")
	}
}
