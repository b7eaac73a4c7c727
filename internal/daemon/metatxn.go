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
// rule, and commit every change as a single kvstore.Batch of puts and
// deletes — one WAL append however many ops. A failed op sets its errno
// and never disturbs its batchmates; an error return means nothing was
// committed.
//
// Stats take no lock (a point read is atomic). Every other op, a grow
// too, holds its key's stripe from load to commit, so writers of one
// shared file serialize on it. The paper grows a size with a lock-free
// merge operand (§III-B); here the store's Apply runs under one mutex
// anyway, and a locked read-modify-write that commits the grown record
// measured cheaper than handing the store an operand to fold
// (BenchmarkGrow).
//
// overlay holds the pending state of paths this transaction has already
// changed, so later ops see earlier ones; the caller brings it, and a
// transaction of one brings nil. That, the straight-line body and the
// stack-backed key vectors keep a transaction of one as cheap as a bare
// read-modify-write. The stack stays shallow too: a batch runs on a
// goroutine of its own and pays for every frame of depth in stack
// growth, while the single-op framings run on the connection reader's
// warm stack (register).
func (d *Daemon) metaTxn(ops []proto.MetaOp, results []proto.MetaResult, overlay map[string]meta.Record) error {
	var key0, lock0 [1][]byte
	keys, locks := key0[:0], lock0[:0]
	if len(ops) > 1 {
		keys = make([][]byte, 0, len(ops))
		locks = make([][]byte, 0, len(ops))
	}
	for i := range ops {
		op := &ops[i]
		keys = append(keys, []byte(op.Path))
		if op.Kind == proto.MetaOpStat || op.Inval {
			continue
		}
		locks = append(locks, keys[i])
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
			var err error
			if rec, err = d.record(keys[i]); err != nil {
				return opError(op, err)
			}
		}
		out := meta.Put
		switch op.Kind {
		case proto.MetaOpStat:
			atomic.AddUint64(&d.live.StatOps, 1)
			if !rec.Exists {
				res.Errno = proto.ErrnoNotExist
				continue
			}
			res.Blob = rec.Meta.Encode()
			continue
		case proto.MetaOpCreate:
			atomic.AddUint64(&d.live.Creates, 1)
			out = rec.Create(op.Mode, op.TimeNS)
		case proto.MetaOpRemove:
			atomic.AddUint64(&d.live.Removes, 1)
			var was meta.Metadata
			was, out = rec.Remove(op.FileOnly)
			res.Mode, res.Size = was.Mode, was.Size
		case proto.MetaOpUpdateSize:
			atomic.AddUint64(&d.live.SizeUpdates, 1)
			if op.Truncate {
				out = rec.Truncate(op.Size, op.TimeNS)
			} else {
				out = rec.Grow(op.Size, op.TimeNS)
			}
		}
		switch out {
		case meta.Put:
			batch.PutOwned(keys[i], rec.Meta.Encode())
		case meta.Delete:
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

// record loads path's stored record; a key the store does not hold is
// an absent record. A present record that does not decode is an error,
// never "absent": a client told the file is gone could let the
// application overwrite it.
func (d *Daemon) record(key []byte) (meta.Record, error) {
	v, err := d.db.Get(key)
	if errors.Is(err, kvstore.ErrNotFound) {
		return meta.Record{}, nil
	}
	if err != nil {
		return meta.Record{}, err
	}
	md, err := meta.DecodeMetadata(v)
	if err != nil {
		return meta.Record{}, fmt.Errorf("corrupt metadata record: %w", err)
	}
	return meta.Record{Meta: md, Exists: true}, nil
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
	e := rpc.NewEnc(2 + 9 + len(res[0].Blob))
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
	if err := d.metaTxn(ops, results, make(map[string]meta.Record, len(ops))); err != nil {
		return nil, fmt.Errorf("batch meta: %w", err)
	}
	atomic.AddUint64(&d.live.BatchRPCs, 1)
	atomic.AddUint64(&d.live.BatchedOps, uint64(len(ops)))
	e := okResp(4 + 4*len(results))
	proto.EncodeMetaResults(e, ops, results)
	return e.Bytes(), nil
}
