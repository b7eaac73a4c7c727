package daemon

// Cluster-wide snapshots, daemon side. Daemons never talk to each other
// (paper §III-B), so a snapshot is client-orchestrated two-phase: the
// client reserves the tag at every metadata owner (each proposes its
// current epoch), takes the maximum M, and commits tag→M everywhere; a
// daemon that cannot be reached aborts the tag. Each daemon keeps the
// tag table and its current epoch durably in its own KV store — commit
// is a single atomic batch (tag record + pending cleanup + epoch
// advance), which is what keeps a severed daemon's namespace strictly
// pre- or post-snapshot across a restart, never torn.
//
// State lives under keys prefixed "\x00snap\x00": "\x00" sorts before
// "/" (the namespace root), so directory scans can never surface them.

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
	"repro/internal/proto"
	"repro/internal/rpc"
)

const (
	snapStatePrefix   = "\x00snap\x00"
	snapEpochKey      = "\x00snap\x00e"
	snapCommitPrefix  = "\x00snap\x00c\x00"
	snapPendingPrefix = "\x00snap\x00p\x00"
)

// snapState is a daemon's in-memory mirror of its durable snapshot
// table. The epoch and the retained-epoch set are read on every write
// path, so they live outside the mutex.
//
// The epoch is also a gate. A committed epoch M must be immutable, so no
// mutation stamped M may still be applying when the commit is
// acknowledged. Every mutating handler therefore brackets its work in
// enter/exit, which count it in flight under the epoch it was stamped
// with; commit publishes the next epoch first and then waits for the old
// one's count to drain. Mutations never wait — only commit does, for at
// most one handler's duration, and on a counter no handler needs a lock
// to decrement.
type snapState struct {
	mu sync.Mutex
	// committed maps tag → pinned epoch.
	committed map[string]uint64
	// pending maps tag → this daemon's proposed epoch (reserved, not yet
	// committed).
	pending map[string]uint64
	// cur is the current epoch's slot: every mutation is stamped with its
	// epoch and counted in it while it applies.
	cur atomic.Pointer[epochSlot]
	// retained caches the sorted epochs some tag (committed or pending)
	// still pins, as a []uint64. Recomputed under mu on every change.
	retained atomic.Value
}

func u64le(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// epochSlot is one epoch of the gate: the stamp and the number of
// mutations applying under it.
type epochSlot struct {
	epoch    uint64
	inflight atomic.Int64
}

// enter admits a mutation arriving now: it returns the current epoch's
// slot, counting the mutation in flight there until exit, and the
// retained set to compact and copy-on-write against. The slot is
// re-read after the increment: if a commit retired it in between, the
// commit may already have seen a zero count, so the mutation backs out
// and takes the new epoch instead.
func (d *Daemon) enter() (*epochSlot, []uint64) {
	for {
		s := d.snaps.cur.Load()
		s.inflight.Add(1)
		if d.snaps.cur.Load() == s {
			return s, d.retainedEpochs()
		}
		s.inflight.Add(-1)
	}
}

// exit marks the mutation applied.
func (s *epochSlot) exit() { s.inflight.Add(-1) }

// drain waits until every mutation counted in a retired slot has exited.
// The wait is a poll: commits are rare, handlers are short, and a wake-up
// channel would put a second atomic on every mutation's exit.
func (s *epochSlot) drain() {
	for s.inflight.Load() != 0 {
		time.Sleep(20 * time.Microsecond)
	}
}

// retainedEpochs returns the sorted epochs still pinned by a tag. The
// slice is immutable — callers must not modify it.
func (d *Daemon) retainedEpochs() []uint64 {
	if r, ok := d.snaps.retained.Load().([]uint64); ok {
		return r
	}
	return nil
}

// storeRetainedLocked recomputes the retained-epoch cache. Pending
// reservations count: a write landing between reserve and commit must
// not discard state the about-to-commit snapshot needs. Caller holds
// snaps.mu.
func (d *Daemon) storeRetainedLocked() {
	s := &d.snaps
	out := make([]uint64, 0, len(s.committed)+len(s.pending))
	for _, e := range s.committed {
		out = append(out, e)
	}
	for _, e := range s.pending {
		out = append(out, e)
	}
	slices.Sort(out)
	s.retained.Store(slices.Compact(out))
}

// loadSnapshots rebuilds the snapshot table from the KV store at
// startup. The epoch resumes at least one past every committed tag —
// forgetting an advance would stamp new writes below a pinned epoch and
// tear the snapshot.
func (d *Daemon) loadSnapshots() error {
	s := &d.snaps
	s.committed = make(map[string]uint64)
	s.pending = make(map[string]uint64)
	it, err := d.db.NewIterator()
	if err != nil {
		return err
	}
	defer it.Close()
	var epoch uint64
	for it.Seek([]byte(snapStatePrefix)); it.Valid(); it.Next() {
		k := string(it.Key())
		if len(k) < len(snapStatePrefix) || k[:len(snapStatePrefix)] != snapStatePrefix {
			break
		}
		if len(it.Value()) != 8 {
			return fmt.Errorf("daemon: corrupt snapshot state at %q", k)
		}
		v := binary.LittleEndian.Uint64(it.Value())
		switch {
		case k == snapEpochKey:
			epoch = max(epoch, v)
		case len(k) > len(snapCommitPrefix) && k[:len(snapCommitPrefix)] == snapCommitPrefix:
			s.committed[k[len(snapCommitPrefix):]] = v
			epoch = max(epoch, v+1)
		case len(k) > len(snapPendingPrefix) && k[:len(snapPendingPrefix)] == snapPendingPrefix:
			s.pending[k[len(snapPendingPrefix):]] = v
			epoch = max(epoch, v)
		}
	}
	s.cur.Store(&epochSlot{epoch: epoch})
	d.storeRetainedLocked()
	return nil
}

// handleSnapshot runs one phase of the two-phase snapshot protocol.
// Request: [u8 phase][str tag], plus [u64 epoch] for commit. Reserve
// replies this daemon's proposed epoch; commit pins the tag at the
// cluster maximum the client computed, advances the epoch past it and
// waits out the mutations still applying under the old epoch; abort
// discards a reservation. Commit and abort are idempotent so the
// client can retry them blindly, including against a daemon that
// restarted and lost the reservation.
func (d *Daemon) handleSnapshot(req []byte, _ rpc.Bulk) ([]byte, error) {
	dec := rpc.NewDec(req)
	phase := dec.U8()
	tag := dec.Str()
	var epoch uint64
	if dec.Err() == nil && phase == proto.SnapCommit {
		epoch = dec.U64()
	}
	if err := dec.Done(); err != nil {
		return nil, err
	}
	if len(tag) == 0 || len(tag) > proto.MaxSnapshotTag {
		return errResp(proto.ErrnoInval), nil
	}
	s := &d.snaps
	s.mu.Lock()
	defer s.mu.Unlock()
	switch phase {
	case proto.SnapReserve:
		if _, ok := s.committed[tag]; ok {
			return errResp(proto.ErrnoExist), nil
		}
		if p, ok := s.pending[tag]; ok {
			// A retried reserve re-proposes the original epoch.
			e := okResp(8)
			e.U64(p)
			return e.Bytes(), nil
		}
		cur := s.cur.Load().epoch
		if err := d.db.Put([]byte(snapPendingPrefix+tag), u64le(cur)); err != nil {
			return nil, fmt.Errorf("snapshot reserve %s: %w", tag, err)
		}
		s.pending[tag] = cur
		d.storeRetainedLocked()
		e := okResp(8)
		e.U64(cur)
		return e.Bytes(), nil
	case proto.SnapCommit:
		if c, ok := s.committed[tag]; ok {
			e := okResp(8)
			e.U64(c)
			return e.Bytes(), nil
		}
		old := s.cur.Load()
		next := max(old.epoch, epoch+1)
		// One batch — one WAL append: the tag record, the reservation
		// cleanup and the epoch advance land atomically or not at all.
		b := &kvstore.Batch{}
		b.Put([]byte(snapCommitPrefix+tag), u64le(epoch))
		b.Delete([]byte(snapPendingPrefix + tag))
		b.Put([]byte(snapEpochKey), u64le(next))
		if err := d.db.Apply(b); err != nil {
			return nil, fmt.Errorf("snapshot commit %s: %w", tag, err)
		}
		delete(s.pending, tag)
		s.committed[tag] = epoch
		// Retained first: a mutation that sees the new epoch must also see
		// the pin it has to preserve.
		d.storeRetainedLocked()
		if next != old.epoch {
			s.cur.Store(&epochSlot{epoch: next})
			// Still under mu, so a retried commit queues behind the drain
			// instead of acknowledging early. No mutating handler takes mu.
			old.drain()
		}
		atomic.AddUint64(&d.live.SnapshotPins, 1)
		e := okResp(8)
		e.U64(epoch)
		return e.Bytes(), nil
	case proto.SnapAbort:
		if _, ok := s.pending[tag]; ok {
			if err := d.db.Delete([]byte(snapPendingPrefix + tag)); err != nil {
				return nil, fmt.Errorf("snapshot abort %s: %w", tag, err)
			}
			delete(s.pending, tag)
			d.storeRetainedLocked()
		}
		return okResp(0).Bytes(), nil
	}
	return errResp(proto.ErrnoInval), nil
}

// handleSnapshotList replies this daemon's committed tags, sorted by
// tag. The client intersects the per-daemon views — a tag is usable
// only where every daemon agrees on its epoch.
func (d *Daemon) handleSnapshotList(req []byte, _ rpc.Bulk) ([]byte, error) {
	dec := rpc.NewDec(req)
	if err := dec.Done(); err != nil {
		return nil, err
	}
	s := &d.snaps
	s.mu.Lock()
	ents := make([]proto.SnapshotEntry, 0, len(s.committed))
	for tag, e := range s.committed {
		ents = append(ents, proto.SnapshotEntry{Tag: tag, Epoch: e})
	}
	s.mu.Unlock()
	sort.Slice(ents, func(i, j int) bool { return ents[i].Tag < ents[j].Tag })
	e := okResp(4 + 16*len(ents))
	proto.EncodeSnapshotList(e, ents)
	return e.Bytes(), nil
}

// handleSnapshotDrop unpins a committed tag and garbage-collects the
// chunk pre-images only it retained. Version history in metadata
// records is compacted lazily, on each record's next mutation.
func (d *Daemon) handleSnapshotDrop(req []byte, _ rpc.Bulk) ([]byte, error) {
	dec := rpc.NewDec(req)
	tag := dec.Str()
	if err := dec.Done(); err != nil {
		return nil, err
	}
	if len(tag) == 0 || len(tag) > proto.MaxSnapshotTag {
		return errResp(proto.ErrnoInval), nil
	}
	s := &d.snaps
	s.mu.Lock()
	if _, ok := s.committed[tag]; !ok {
		s.mu.Unlock()
		return errResp(proto.ErrnoNotExist), nil
	}
	if err := d.db.Delete([]byte(snapCommitPrefix + tag)); err != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("snapshot drop %s: %w", tag, err)
	}
	delete(s.committed, tag)
	d.storeRetainedLocked()
	s.mu.Unlock()
	if err := d.chunks.GCPreImages(d.retainedEpochs()); err != nil {
		return nil, fmt.Errorf("snapshot drop %s: %w", tag, err)
	}
	atomic.AddUint64(&d.live.SnapshotDrops, 1)
	return okResp(0).Bytes(), nil
}
