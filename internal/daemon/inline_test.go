package daemon

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/transport/wiretest"
)

// TestInlineChunkOpsLiveness runs, at the same time and over two real TCP
// connections to one daemon, chunk writes and reads of one path on
// connection A — point ops, served one after another on that
// connection's reader — and, on connection B, the ops of the same path
// that take its write lock (chunk truncation and removal, each on a
// goroutine of its own) plus snapshot commits, which drain the mutations
// of the old epoch. An inline chunk op may meet the path lock or the
// epoch gate held by B's handlers, but never waits on a request, so
// everything must finish well within the deadline.
func TestInlineChunkOpsLiveness(t *testing.T) {
	d := newTestDaemon(t) // 256-byte chunks
	a, b := wiretest.Dial(t, d.Server(), wiretest.TCP, 1), wiretest.Dial(t, d.Server(), wiretest.TCP, 1)
	const path = "/shared"
	call := func(c rpc.Conn, op rpc.Op, payload, bulk []byte, dir rpc.BulkDir) (*rpc.Dec, error) {
		resp, err := c.Call(op, payload, bulk, dir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", proto.OpName(op), err)
		}
		dec := rpc.NewDec(resp)
		if errno := proto.Errno(dec.U16()); errno != proto.OK {
			return nil, fmt.Errorf("%s: %w", proto.OpName(op), errno.Err())
		}
		return dec, nil
	}
	if _, err := call(b, proto.OpCreate, encCreate(path, meta.ModeRegular), nil, rpc.BulkNone); err != nil {
		t.Fatal(err)
	}

	const (
		chunks   = 8
		ioLoops  = 4   // goroutines sharing connection A
		ioRounds = 200 // write-then-read rounds of each
		bRounds  = 50  // truncate, remove and snapshot rounds on connection B
		deadline = 30 * time.Second
	)
	errs := make(chan error, ioLoops+1)
	var wg sync.WaitGroup
	for g := 0; g < ioLoops; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := make([]byte, 256)
			for i := 0; i < ioRounds; i++ {
				span := []proto.ChunkSpan{{ID: meta.ChunkID((g + i) % chunks), Len: 256}}
				if _, err := call(a, proto.OpWriteChunks, encWrite(path, span), data, rpc.BulkIn); err != nil {
					errs <- err
					return
				}
				if _, err := call(a, proto.OpReadChunks, encChunks(path, span, 0), data, rpc.BulkOut); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < bRounds; i++ {
			trunc := rpc.NewEnc(len(path) + 12)
			trunc.Str(path).I64(int64(i%chunks) * 256)
			if _, err := call(b, proto.OpTruncateChunks, trunc.Bytes(), nil, rpc.BulkNone); err != nil {
				errs <- err
				return
			}
			rm := rpc.NewEnc(len(path) + 4)
			rm.Str(path)
			if _, err := call(b, proto.OpRemoveChunks, rm.Bytes(), nil, rpc.BulkNone); err != nil {
				errs <- err
				return
			}
			tag := fmt.Sprintf("pin%d", i)
			reserve := rpc.NewEnc(len(tag) + 5)
			reserve.U8(proto.SnapReserve).Str(tag)
			dec, err := call(b, proto.OpSnapshot, reserve.Bytes(), nil, rpc.BulkNone)
			if err != nil {
				errs <- err
				return
			}
			commit := rpc.NewEnc(len(tag) + 13)
			commit.U8(proto.SnapCommit).Str(tag).U64(dec.U64())
			if _, err := call(b, proto.OpSnapshot, commit.Bytes(), nil, rpc.BulkNone); err != nil {
				errs <- err
				return
			}
			drop := rpc.NewEnc(len(tag) + 4)
			drop.Str(tag)
			if _, err := call(b, proto.OpSnapshotDrop, drop.Bytes(), nil, rpc.BulkNone); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(deadline):
		t.Fatalf("inline chunk I/O on one connection and truncate/remove/snapshot commit on another did not finish within %v", deadline)
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
