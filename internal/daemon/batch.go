package daemon

import (
	"errors"
	"fmt"

	"repro/internal/kvstore"
	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// The vectored metadata plane. One OpBatchMeta RPC carries many
// create/stat/remove/update-size sub-operations; the mutating ones commit
// through a single kvstore.Batch — one WAL append for the whole vector
// instead of one per op — while per-op outcomes travel back as an errno
// vector, so one failed sub-op never poisons its batchmates.

// batchRec is the within-batch view of one path: the versioned record as
// the batch will leave it once applied. It overlays the store so later
// sub-ops of the same batch observe earlier ones (a create after a
// remove of the same path must succeed). An empty history (nil V) means
// the key is absent.
type batchRec struct {
	vm meta.VersionedMeta
}

// live resolves the record's current state within the batch.
func (r *batchRec) live() (meta.Metadata, bool) {
	if len(r.vm.V) == 0 {
		return meta.Metadata{}, false
	}
	return r.vm.Live()
}

func (d *Daemon) handleBatchMeta(req []byte, _ rpc.Bulk) ([]byte, error) {
	dec := rpc.NewDec(req)
	ops := proto.DecodeMetaOps(dec)
	if err := dec.Done(); err != nil {
		return nil, err
	}
	results := make([]proto.MetaResult, len(ops))
	epoch, retained := d.snapEpoch(), d.retainedEpochs()

	// Keys of mutating sub-ops; their stripe locks are held across the
	// whole read-validate-apply sequence so the batch is atomic with
	// respect to the single-op handlers (Update). The byte conversions
	// are kept (keyOf) and handed to the batch via the owned variants —
	// one key buffer per op, no re-copies.
	keys := make([][]byte, 0, len(ops))
	keyOf := make([][]byte, len(ops))
	for i := range ops {
		if ops[i].Kind != proto.MetaOpStat {
			k := []byte(ops[i].Path)
			keyOf[i] = k
			keys = append(keys, k)
		}
	}

	batch := &kvstore.Batch{}
	overlay := make(map[string]batchRec)
	// load returns the record as the batch will leave it: pending batch
	// state first, then the store.
	load := func(path string) (batchRec, error) {
		if rec, ok := overlay[path]; ok {
			return rec, nil
		}
		v, err := d.db.Get([]byte(path))
		if errors.Is(err, kvstore.ErrNotFound) {
			return batchRec{}, nil
		}
		if err != nil {
			return batchRec{}, err
		}
		vm, err := meta.DecodeVersionedMeta(v)
		if err != nil {
			return batchRec{}, fmt.Errorf("corrupt record at %s: %w", path, err)
		}
		return batchRec{vm: vm}, nil
	}

	err := d.db.WithKeyLocks(keys, func() error {
		for i := range ops {
			op := &ops[i]
			if op.Kind == proto.MetaOpStat {
				d.statOps.Add(1)
				rec, err := load(op.Path)
				if err != nil {
					return err
				}
				md, ok := rec.live()
				if !ok {
					results[i].Errno = proto.ErrnoNotExist
					continue
				}
				results[i].Blob = md.Encode()
				continue
			}
			rec, err := load(op.Path)
			if err != nil {
				return err
			}
			cur, exists := rec.live()
			switch op.Kind {
			case proto.MetaOpCreate:
				d.creates.Add(1)
				if exists {
					results[i].Errno = proto.ErrnoExist
					continue
				}
				md := meta.Metadata{Mode: op.Mode, CTimeNS: op.TimeNS, MTimeNS: op.TimeNS}
				rec.vm.Stamp(epoch, md)
				rec.vm.Compact(retained)
				batch.PutOwned(keyOf[i], rec.vm.Encode())
				overlay[op.Path] = rec
			case proto.MetaOpRemove:
				d.removes.Add(1)
				if !exists {
					results[i].Errno = proto.ErrnoNotExist
					continue
				}
				if op.FileOnly && cur.IsDir() {
					results[i].Errno = proto.ErrnoIsDir
					continue
				}
				rec.vm.StampTombstone(epoch)
				rec.vm.Compact(retained)
				if len(rec.vm.V) == 1 {
					// Only the tombstone survives compaction: no retained
					// snapshot sees the old state, drop the key outright.
					batch.DeleteOwned(keyOf[i])
				} else {
					batch.PutOwned(keyOf[i], rec.vm.Encode())
				}
				overlay[op.Path] = rec
				results[i].Mode = cur.Mode
				results[i].Size = cur.Size
			case proto.MetaOpUpdateSize:
				d.sizeUpdates.Add(1)
				if exists && cur.IsDir() {
					results[i].Errno = proto.ErrnoIsDir
					continue
				}
				if op.Truncate {
					if !exists {
						results[i].Errno = proto.ErrnoNotExist
						continue
					}
					md := cur
					md.Size = op.Size
					md.MTimeNS = op.TimeNS
					rec.vm.Stamp(epoch, md)
					rec.vm.Compact(retained)
					batch.PutOwned(keyOf[i], rec.vm.Encode())
					overlay[op.Path] = rec
				} else {
					// The grow stays a merge operand even inside a batch,
					// keeping the max-size resolution semantics shared
					// with the single-op path. The operand carries the
					// arrival epoch for the merger (see sizeMerger).
					operand := rpc.NewEnc(24)
					operand.I64(op.Size).I64(op.TimeNS).U64(epoch)
					batch.MergeOwned(keyOf[i], operand.Bytes())
					// Mirror the merger's outcome into the overlay so
					// later sub-ops of this batch see the grown state.
					rec.vm.Grow(epoch, op.Size, op.TimeNS)
					overlay[op.Path] = rec
				}
			}
		}
		return d.db.Apply(batch)
	})
	if err != nil {
		return nil, fmt.Errorf("batch meta: %w", err)
	}
	d.batchRPCs.Add(1)
	d.batchedOps.Add(uint64(len(ops)))

	e := okResp(4 + 4*len(results))
	proto.EncodeMetaResults(e, ops, results)
	return e.Bytes(), nil
}
