package daemon

import (
	"math"
	"testing"

	"repro/internal/proto"
	"repro/internal/rpc"
)

// TestChunkHandlersRejectSpanOverflow is the regression test for the
// span-sum overflow: span lengths near MaxInt64 wrapped proto.SpanBytes
// negative, slipped past the bulk-length guard, and panicked the daemon
// allocating the staging buffer. A ~100-byte hostile request must yield
// an error, not a dead daemon.
func TestChunkHandlersRejectSpanOverflow(t *testing.T) {
	d := newTestDaemon(t)
	hostile := [][]proto.ChunkSpan{
		// Two spans summing past MaxInt64 (negative total).
		{{ID: 0, Off: 0, Len: 1 << 62}, {ID: 1, Off: 0, Len: 1 << 62}},
		{{ID: 0, Off: 0, Len: math.MaxInt64}, {ID: 1, Off: 0, Len: 1}},
		// A single span beyond any sane transfer.
		{{ID: 0, Off: 0, Len: math.MaxInt64}},
		// Many moderate spans whose total is still absurd.
		{{ID: 0, Off: 0, Len: 100 << 20}, {ID: 1, Off: 0, Len: 100 << 20}},
	}
	for _, op := range []rpc.Op{proto.OpWriteChunks, proto.OpReadChunks} {
		for i, spans := range hostile {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("op %d case %d panicked: %v", op, i, r)
					}
				}()
				e := rpc.NewEnc(64)
				e.Str("/victim")
				proto.EncodeSpans(e, spans)
				e.U8(0)
				bulk := rpc.SliceBulk(make([]byte, 16))
				if _, err := d.Server().Dispatch(op, e.Bytes(), bulk); err == nil {
					t.Fatalf("op %d case %d: hostile spans accepted", op, i)
				}
			}()
		}
	}
	// The daemon still serves valid traffic.
	e := rpc.NewEnc(64)
	e.Str("/victim")
	proto.EncodeSpans(e, []proto.ChunkSpan{{ID: 0, Off: 0, Len: 4}})
	e.U8(0)
	if _, err := d.Server().Dispatch(proto.OpWriteChunks, e.Bytes(), rpc.SliceBulk([]byte("data"))); err != nil {
		t.Fatalf("valid write after hostile spans: %v", err)
	}
}
