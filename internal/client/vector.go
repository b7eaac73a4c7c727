package client

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// The vectored metadata plane (client side). CreateMany, StatMany and
// RemoveMany shard their operation vectors by metadata owner, issue one
// OpBatchMeta RPC per involved daemon in parallel over the pooled
// connections, and stitch the per-op outcomes back into caller order —
// the batching that turns mdtest-style namespace storms from one RPC per
// op into one RPC per daemon per page (paper §IV's metadata experiments).

// batchMeta runs an operation vector through the batch plane. Paths in
// ops must already be canonical. results[i] is op i's outcome; errs[i]
// carries a transport or RPC failure of the shard op i traveled in (the
// whole shard fails together, but other shards are unaffected); a
// transport failure names op i's own op and path (lostErr).
func (c *Client) batchMeta(ops []proto.MetaOp) ([]proto.MetaResult, []error) {
	results := make([]proto.MetaResult, len(ops))
	errs := make([]error, len(ops))
	shards := make(map[int][]int, len(c.cfg.Conns)) // node → indices into ops
	for i := range ops {
		node := c.dist.MetaTarget(ops[i].Path)
		shards[node] = append(shards[node], i)
	}
	var wg sync.WaitGroup
	for node, idx := range shards {
		wg.Add(1)
		go func(node int, idx []int) {
			defer wg.Done()
			// Oversized shards split into multiple RPCs, bounding how
			// long a daemon holds its KV locks for one batch.
			for len(idx) > 0 {
				n := min(len(idx), proto.MaxBatchOps)
				c.batchMetaCall(node, idx[:n], ops, results, errs)
				idx = idx[n:]
			}
		}(node, idx)
	}
	wg.Wait()
	return results, errs
}

// batchMetaCall issues one OpBatchMeta carrying ops[idx...] and scatters
// the reply back through idx. The shard is encoded and decoded in place
// — no gathered copy of the sub-ops.
func (c *Client) batchMetaCall(node int, idx []int, ops []proto.MetaOp, results []proto.MetaResult, errs []error) {
	wire := 8
	for _, i := range idx {
		wire += len(ops[i].Path) + 24
	}
	fail := func(err error) {
		for _, i := range idx {
			errs[i] = lostErr(proto.OpName(rpc.Op(ops[i].Kind)), ops[i].Path, node, err)
		}
	}
	e := rpc.NewEnc(wire)
	e.U32(uint32(len(idx)))
	for _, i := range idx {
		proto.EncodeMetaOp(e, &ops[i])
	}
	d, err := c.call(node, proto.OpBatchMeta, e.Bytes(), rpc.BulkNone)
	if err != nil {
		fail(err)
		return
	}
	if n := d.U32(); int(n) != len(idx) {
		fail(rpc.ErrMalformed)
		return
	}
	for _, i := range idx {
		results[i] = proto.DecodeMetaResult(d, &ops[i])
	}
	if err := d.Done(); err != nil {
		fail(err)
	}
}

// vector is the shared body of the *Many calls: clean every path, build
// its op with mk, run the ops through the batch plane, and hand each
// result to done. errs[i] is path i's outcome — what Clean, mk, the
// shard's transport or done reported, in that order.
func (c *Client) vector(paths []string, mk func(i int, p string) (proto.MetaOp, error), done func(i int, op *proto.MetaOp, r *proto.MetaResult) error) []error {
	errs := make([]error, len(paths))
	ops := make([]proto.MetaOp, 0, len(paths))
	opIdx := make([]int, 0, len(paths)) // ops index → paths index
	for i, path := range paths {
		p, err := meta.Clean(path)
		if err != nil {
			errs[i] = err
			continue
		}
		op, err := mk(i, p)
		if err != nil {
			errs[i] = err
			continue
		}
		ops = append(ops, op)
		opIdx = append(opIdx, i)
	}
	results, rerrs := c.batchMeta(ops)
	for j := range results {
		i := opIdx[j]
		if errs[i] = rerrs[j]; errs[i] == nil {
			errs[i] = done(i, &ops[j], &results[j])
		}
	}
	return errs
}

// errnoOnly is the done of ops whose result carries nothing but an errno.
func errnoOnly(_ int, _ *proto.MetaOp, r *proto.MetaResult) error { return r.Errno.Err() }

// CreateMany creates zero-byte regular files at paths — the mdtest create
// phase as one RPC per daemon instead of one per file. The returned slice
// has one error per path, aligned with the input; a path that already
// exists reports ErrExist without disturbing its batchmates.
func (c *Client) CreateMany(paths []string) []error {
	now := time.Now().UnixNano()
	return c.vector(paths, func(_ int, p string) (proto.MetaOp, error) {
		return proto.MetaOp{Kind: proto.MetaOpCreate, Path: p, Mode: meta.ModeRegular, TimeNS: now}, nil
	}, errnoOnly)
}

// StatMany fetches file information for paths, one batch RPC per daemon.
// infos[i] is valid exactly when errs[i] is nil.
func (c *Client) StatMany(paths []string) ([]FileInfo, []error) {
	infos := make([]FileInfo, len(paths))
	errs := c.vector(paths, func(_ int, p string) (proto.MetaOp, error) {
		return proto.MetaOp{Kind: proto.MetaOpStat, Path: p}, nil
	}, func(i int, op *proto.MetaOp, r *proto.MetaResult) error {
		if err := r.Errno.Err(); err != nil {
			return err
		}
		md, err := meta.DecodeMetadata(r.Blob)
		infos[i] = infoFromMeta(op.Path, md)
		return err
	})
	return infos, errs
}

// GrowMany raises file sizes through the vector plane: sizes[i] becomes a
// grow (to the maximum) candidate for paths[i], sharded by metadata owner into one
// OpBatchMeta per daemon — one RPC and one WAL append per batch instead
// of one OpUpdateSize round trip per file. Stage-in pairs it with
// WritePath: chunk data first, then the whole batch's sizes in one
// stroke. One error per path, aligned with the input.
func (c *Client) GrowMany(paths []string, sizes []int64) []error {
	if len(sizes) != len(paths) {
		errs := make([]error, len(paths))
		for i := range errs {
			errs[i] = fmt.Errorf("client: GrowMany got %d paths, %d sizes: %w",
				len(paths), len(sizes), proto.ErrInval)
		}
		return errs
	}
	now := time.Now().UnixNano()
	gen := c.sizeGen.Load()
	return c.vector(paths, func(i int, p string) (proto.MetaOp, error) {
		if sizes[i] < 0 {
			return proto.MetaOp{}, proto.ErrInval
		}
		return proto.MetaOp{Kind: proto.MetaOpUpdateSize, Path: p, Size: sizes[i], TimeNS: now}, nil
	}, func(_ int, op *proto.MetaOp, r *proto.MetaResult) error {
		if r.Errno == proto.OK {
			c.grew(op.Path, nil, gen, op.Size) // as sendGrow's acknowledgement
		}
		return r.Errno.Err()
	})
}

// RemoveMany unlinks paths, one batch RPC per daemon plus chunk
// collection only for the files that had data (as Remove decides it).
// Directories take the one-path protocol (empty check, then remove) — the
// daemon's ErrIsDir answer routes them there without a leading stat.
func (c *Client) RemoveMany(paths []string) []error {
	var chunky []string // removed files with data, needing chunk collection
	var chunkyIdx []int
	unpublished := make([]bool, len(paths))
	errs := c.vector(paths, func(i int, p string) (proto.MetaOp, error) {
		if p == meta.Root {
			return proto.MetaOp{}, proto.ErrInval
		}
		unpublished[i] = c.unpublished(p)
		return proto.MetaOp{Kind: proto.MetaOpRemove, Path: p, FileOnly: true}, nil
	}, func(i int, op *proto.MetaOp, r *proto.MetaResult) error {
		if r.Errno == proto.ErrnoIsDir {
			return c.Remove(op.Path)
		}
		if r.Errno == proto.OK {
			c.forgetPath(op.Path)
			if r.Size > 0 || unpublished[i] {
				chunky = append(chunky, op.Path)
				chunkyIdx = append(chunkyIdx, i)
			}
		}
		return r.Errno.Err()
	})
	if len(chunky) > 0 {
		if err := c.collectChunks(chunky); err != nil {
			for _, i := range chunkyIdx {
				if errs[i] == nil {
					errs[i] = err
				}
			}
		}
	}
	return errs
}
