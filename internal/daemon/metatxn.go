package daemon

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/kvstore"
	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// The metadata plane. Every namespace operation — create, stat, remove,
// truncate, grow — has one rule (the transitions in internal/meta) and
// one commit path (metaTxn below), reached through two framings of the
// same bytes: OpBatchMeta carries n sub-ops, and each of OpCreate,
// OpStat, OpRemoveMeta and OpUpdateSize carries one sub-op's body under
// its own op code (kept apart because they are the per-op histograms an
// operator reads). A single op is a batch of one.

// outcomeErrno maps a refused transition to its wire code.
var outcomeErrno = [...]proto.Errno{
	meta.Exists:   proto.ErrnoExist,
	meta.NotExist: proto.ErrnoNotExist,
	meta.IsDir:    proto.ErrnoIsDir,
}

// metaTxn runs ops in order as one transaction, filling results: lock
// the keys of the read-validate-write ops, load each record (this
// transaction's pending state first, then the store), apply the op's
// rule under one (epoch, retained) stamp, and commit every change as a
// single kvstore.Batch — one WAL append however many ops. A failed op
// sets its errno and never disturbs its batchmates; an error return
// means nothing was committed.
//
// Stats take no lock (a point read is atomic) and neither do grows: a
// grow commits as a merge operand, which the store folds under its own
// lock, so shared-file writers never serialize on a stripe. The rule
// still runs here on a copy of the record — to refuse a directory and to
// let later ops of the batch see the grown state — while sizeMerger runs
// it again on whatever the record is when the operand lands; a remove or
// mkdir racing in between is the relaxed outcome the paper accepts
// (§III-A).
//
// overlay holds the pending state of paths this transaction has already
// changed, so later ops see earlier ones; the caller brings it, and a
// transaction of one brings nil. That, the straight-line body and the
// stack-backed key vectors keep a transaction of one as cheap — and its
// stack as shallow, which a handler on a fresh goroutine pays for in
// stack growth — as a bare read-modify-write.
func (d *Daemon) metaTxn(ops []proto.MetaOp, results []proto.MetaResult, overlay map[string]meta.VersionedMeta) error {
	var key0, lock0 [1][]byte
	keys, locks := key0[:0], lock0[:0]
	if len(ops) > 1 {
		keys = make([][]byte, 0, len(ops))
		locks = make([][]byte, 0, len(ops))
	}
	mutates := false
	for i := range ops {
		op := &ops[i]
		keys = append(keys, []byte(op.Path))
		if op.Kind == proto.MetaOpStat || op.Inval {
			continue
		}
		mutates = true
		if op.Kind != proto.MetaOpUpdateSize || op.Truncate {
			locks = append(locks, keys[i])
		}
	}
	var epoch uint64
	var retained []uint64
	if mutates {
		slot, r := d.enter()
		defer slot.exit()
		epoch, retained = slot.epoch, r
	}
	defer d.db.LockKeys(locks).Unlock()

	var batch kvstore.Batch
	for i := range ops {
		op, res := &ops[i], &results[i]
		if op.Inval {
			res.Errno = proto.ErrnoInval
			continue
		}
		rec, pending := overlay[op.Path]
		if !pending {
			switch v, err := d.db.Get(keys[i]); {
			case err == nil:
				if rec, err = meta.DecodeVersionedMeta(v); err != nil {
					return opError(op, err)
				}
			case !errors.Is(err, kvstore.ErrNotFound):
				return opError(op, err)
			}
		}
		out, grow := meta.Put, false
		switch op.Kind {
		case proto.MetaOpStat:
			atomic.AddUint64(&d.live.StatOps, 1)
			if op.Epoch != meta.LiveEpoch {
				atomic.AddUint64(&d.live.SnapshotReads, 1)
			}
			md, ok := rec.At(op.Epoch)
			if !ok {
				res.Errno = proto.ErrnoNotExist
				continue
			}
			res.Blob = md.Encode()
			if op.Flags&proto.StatWantVersions != 0 {
				res.Versions = rec.V
			}
			continue
		case proto.MetaOpCreate:
			atomic.AddUint64(&d.live.Creates, 1)
			out = rec.Create(epoch, retained, op.Mode, op.TimeNS)
		case proto.MetaOpRemove:
			atomic.AddUint64(&d.live.Removes, 1)
			var was meta.Metadata
			was, out = rec.Remove(epoch, retained, op.FileOnly)
			res.Mode, res.Size = was.Mode, was.Size
		case proto.MetaOpUpdateSize:
			atomic.AddUint64(&d.live.SizeUpdates, 1)
			if op.Truncate {
				out = rec.Truncate(epoch, retained, op.Size, op.TimeNS)
			} else {
				out, grow = rec.Grow(epoch, op.Size, op.TimeNS), true
			}
		}
		switch {
		case out == meta.Put && grow:
			// The operand carries the stamp: the merger must stay
			// deterministic for WAL replay, so it reads the epoch from
			// here and never compacts.
			operand := rpc.NewEnc(24)
			operand.I64(op.Size).I64(op.TimeNS).U64(epoch)
			batch.MergeOwned(keys[i], operand.Bytes())
		case out == meta.Put:
			batch.PutOwned(keys[i], rec.Encode())
		case out == meta.Delete:
			batch.DeleteOwned(keys[i])
		default:
			res.Errno = outcomeErrno[out]
			continue
		}
		if overlay != nil {
			overlay[op.Path] = rec
		}
	}
	if err := d.db.Apply(&batch); err != nil {
		return fmt.Errorf("meta commit: %w", err)
	}
	return nil
}

// opError names the op and path a transaction failed on.
func opError(op *proto.MetaOp, err error) error {
	return fmt.Errorf("%s %s: %w", proto.OpName(rpc.Op(op.Kind)), op.Path, err)
}

// handleMetaOp serves the single-op framing of kind: the request is one
// sub-op body, the reply one result.
func (d *Daemon) handleMetaOp(kind proto.MetaOpKind, req []byte) ([]byte, error) {
	op := [1]proto.MetaOp{{Kind: kind}}
	dec := rpc.NewDec(req)
	proto.DecodeMetaOpBody(dec, &op[0])
	if err := dec.Done(); err != nil {
		return nil, err
	}
	var res [1]proto.MetaResult
	if err := d.metaTxn(op[:], res[:], nil); err != nil {
		return nil, err
	}
	e := rpc.NewEnc(2 + 9 + len(res[0].Blob) + 36*len(res[0].Versions))
	proto.EncodeMetaResult(e, &op[0], &res[0])
	return e.Bytes(), nil
}

// handleBatchMeta serves the vectored framing: per-op outcomes travel
// back as a result vector aligned with the request.
func (d *Daemon) handleBatchMeta(req []byte, _ rpc.Bulk) ([]byte, error) {
	dec := rpc.NewDec(req)
	ops := proto.DecodeMetaOps(dec)
	if err := dec.Done(); err != nil {
		return nil, err
	}
	results := make([]proto.MetaResult, len(ops))
	if err := d.metaTxn(ops, results, make(map[string]meta.VersionedMeta, len(ops))); err != nil {
		return nil, fmt.Errorf("batch meta: %w", err)
	}
	atomic.AddUint64(&d.live.BatchRPCs, 1)
	atomic.AddUint64(&d.live.BatchedOps, uint64(len(ops)))
	e := okResp(4 + 4*len(results))
	proto.EncodeMetaResults(e, ops, results)
	return e.Bytes(), nil
}
