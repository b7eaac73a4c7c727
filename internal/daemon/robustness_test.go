package daemon

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// TestEveryOpRegistered pins the op table closed: every op below
// proto.OpEnd reaches a handler. An op added to proto but not to
// register() would answer rpc.ErrUnknownOp, and a client calling it would
// learn that only at run time.
func TestEveryOpRegistered(t *testing.T) {
	d := newTestDaemon(t)
	for op := rpc.Op(1); op < proto.OpEnd; op++ {
		if _, err := d.Server().Dispatch(op, nil, nil); errors.Is(err, rpc.ErrUnknownOp) {
			t.Errorf("op %d (%s) is not registered: %v", op, proto.OpName(op), err)
		}
	}
}

// TestPointOps pins which ops the stream transport may run on a
// connection's reader: ping, the four single-op metadata framings and
// the chunk reads and writes, nothing else. An op whose work grows
// beyond its frame, or that waits on other requests, would stall every
// frame queued behind it.
func TestPointOps(t *testing.T) {
	d := newTestDaemon(t)
	point := map[rpc.Op]bool{
		proto.OpPing: true, proto.OpCreate: true, proto.OpStat: true, proto.OpRemoveMeta: true, proto.OpUpdateSize: true,
		proto.OpWriteChunks: true, proto.OpReadChunks: true,
	}
	for op := rpc.Op(1); op < proto.OpEnd; op++ {
		if got := d.Server().Point(op); got != point[op] {
			t.Errorf("op %s: point op = %v, want %v", proto.OpName(op), got, point[op])
		}
	}
}

// TestHandlersSurviveGarbageRequests feeds random bytes to every
// operation: handlers must return errors, never panic and never corrupt
// the daemon (a follow-up valid request still works). Daemons face
// whatever arrives on the wire; decode failures must be contained.
func TestHandlersSurviveGarbageRequests(t *testing.T) {
	d := newTestDaemon(t)
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		op := rpc.Op(1 + rnd.Intn(int(proto.OpEnd)-1))
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
	t.Run("span offsets", probeSpanOffsets)
}

// probeSpanOffsets sends chunk spans whose offset lies past the chunk to
// both chunk handlers on the in-memory vfs, where a write at 1<<36 once
// made the daemon die of an unrecoverable out-of-memory error: each must
// be refused, and the daemon must go on serving.
func probeSpanOffsets(t *testing.T) {
	d := newTestDaemon(t) // 256-byte chunks
	for _, off := range []int64{257, 1 << 36, math.MaxInt64 - 4} {
		span := []proto.ChunkSpan{{ID: 0, Off: off, Len: 4}}
		for _, op := range []rpc.Op{proto.OpWriteChunks, proto.OpReadChunks} {
			if _, err := d.Server().Dispatch(op, encFor(op, "/v", span), rpc.SliceBulk(make([]byte, 4))); err == nil {
				t.Errorf("%s at offset %d accepted", proto.OpName(op), off)
			}
		}
	}
	span := []proto.ChunkSpan{{ID: 0, Off: 252, Len: 4}}
	if _, err := call(t, d, proto.OpWriteChunks, encWrite("/v", span), []byte("data")); err != nil {
		t.Fatalf("valid write after hostile offsets: %v", err)
	}
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
