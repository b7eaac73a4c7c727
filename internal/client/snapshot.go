package client

// Snapshots, client side. Daemons never coordinate with each other, so
// the client drives the two-phase pin: reserve the tag at every daemon
// (each proposes its current epoch), take the maximum M, then commit
// tag→M everywhere. A reserve or commit that cannot reach a daemon
// aborts the tag — a snapshot either exists identically on every daemon
// or is not usable at all (Snapshots intersects the per-daemon views).
// Snapshot reads are plain reads at a finite epoch (io.go: LiveEpoch);
// they run through the same executor as live ones.

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// ErrSnapshotTag reports an unusable snapshot tag.
var ErrSnapshotTag = errors.New("gekkofs: invalid snapshot tag")

func validTag(tag string) error {
	if len(tag) == 0 || len(tag) > proto.MaxSnapshotTag {
		return fmt.Errorf("%w: %q", ErrSnapshotTag, tag)
	}
	return nil
}

// snapshotPhase runs one OpSnapshot phase for tag on every daemon and
// returns the epochs the replies carried (none for an abort).
func (c *Client) snapshotPhase(phase uint8, tag string, epoch uint64) ([]uint64, error) {
	if err := validTag(tag); err != nil {
		return nil, err
	}
	epochs := make([]uint64, len(c.cfg.Conns))
	err := c.fanOut(func(node int) error {
		e := rpc.NewEnc(len(tag) + 12)
		e.U8(phase).Str(tag)
		if phase == proto.SnapCommit {
			e.U64(epoch)
		}
		d, err := c.call(node, proto.OpSnapshot, e.Bytes(), nil, rpc.BulkNone)
		if err != nil {
			return err
		}
		if phase != proto.SnapAbort {
			epochs[node] = d.U64()
		}
		return d.Done()
	})
	return epochs, err
}

// SnapshotReserve runs phase one against every daemon and returns the
// cluster epoch the snapshot will pin: the maximum of the per-daemon
// proposals. Exposed separately from Snapshot (alongside SnapshotCommit
// and SnapshotAbort) so crash harnesses can sever a daemon between the
// phases; applications want Snapshot.
func (c *Client) SnapshotReserve(tag string) (uint64, error) {
	proposals, err := c.snapshotPhase(proto.SnapReserve, tag, 0)
	if err != nil {
		return 0, err
	}
	return slices.Max(proposals), nil
}

// SnapshotCommit pins tag at epoch on every daemon (phase two) and
// returns once each has drained the mutations still applying under the
// epoch it left. Idempotent — safe to retry against daemons that already
// committed or that restarted since the reserve.
func (c *Client) SnapshotCommit(tag string, epoch uint64) error {
	_, err := c.snapshotPhase(proto.SnapCommit, tag, epoch)
	return err
}

// SnapshotAbort discards tag's reservation everywhere it still pends.
// Idempotent; committed daemons are untouched.
func (c *Client) SnapshotAbort(tag string) error {
	_, err := c.snapshotPhase(proto.SnapAbort, tag, 0)
	return err
}

// Snapshot pins the namespace under tag and returns the epoch the tag
// pinned. On failure the reservation is aborted best-effort and the tag
// is not usable (a partially committed tag never survives the
// Snapshots intersection).
func (c *Client) Snapshot(tag string) (uint64, error) {
	epoch, err := c.SnapshotReserve(tag)
	if err != nil {
		if !errors.Is(err, ErrSnapshotTag) {
			_ = c.SnapshotAbort(tag)
		}
		return 0, err
	}
	if err := c.SnapshotCommit(tag, epoch); err != nil {
		_ = c.SnapshotAbort(tag)
		return 0, fmt.Errorf("snapshot %s: commit: %w", tag, err)
	}
	return epoch, nil
}

// Snapshots lists the usable snapshots: tags every daemon has committed
// at the same epoch. A tag a failed commit left on only some daemons is
// filtered out here rather than surfacing as a readable-but-torn view.
func (c *Client) Snapshots() ([]proto.SnapshotEntry, error) {
	perNode := make([][]proto.SnapshotEntry, len(c.cfg.Conns))
	err := c.fanOut(func(node int) error {
		d, err := c.call(node, proto.OpSnapshotList, nil, nil, rpc.BulkNone)
		if err != nil {
			return err
		}
		ents := proto.DecodeSnapshotList(d)
		if err := d.Done(); err != nil {
			return err
		}
		perNode[node] = ents
		return nil
	})
	if err != nil {
		return nil, err
	}
	agreed := make(map[string]uint64, len(perNode[0]))
	for _, ent := range perNode[0] {
		agreed[ent.Tag] = ent.Epoch
	}
	for _, ents := range perNode[1:] {
		seen := make(map[string]uint64, len(ents))
		for _, ent := range ents {
			seen[ent.Tag] = ent.Epoch
		}
		for tag, epoch := range agreed {
			if e, ok := seen[tag]; !ok || e != epoch {
				delete(agreed, tag)
			}
		}
	}
	out := make([]proto.SnapshotEntry, 0, len(agreed))
	for tag, epoch := range agreed {
		out = append(out, proto.SnapshotEntry{Tag: tag, Epoch: epoch})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out, nil
}

// SnapshotEpoch maps a usable (fully committed) tag to its pinned
// epoch, for snapshot-aware readers that work in epochs — staging,
// fsck — so they resolve the tag once and pin every subsequent read.
func (c *Client) SnapshotEpoch(tag string) (uint64, error) {
	if err := validTag(tag); err != nil {
		return 0, err
	}
	ents, err := c.Snapshots()
	if err != nil {
		return 0, err
	}
	for _, ent := range ents {
		if ent.Tag == tag {
			return ent.Epoch, nil
		}
	}
	return 0, fmt.Errorf("snapshot %s: %w", tag, proto.ErrNotExist)
}

// SnapshotDrop unpins tag cluster-wide, releasing the version history
// and chunk pre-images it retained. ErrNotExist only when no daemon
// knew the tag — dropping a partially committed tag cleans up the
// daemons that do hold it.
func (c *Client) SnapshotDrop(tag string) error {
	if err := validTag(tag); err != nil {
		return err
	}
	missing := make([]bool, len(c.cfg.Conns))
	err := c.fanOut(func(node int) error {
		e := rpc.NewEnc(len(tag) + 4)
		e.Str(tag)
		d, err := c.call(node, proto.OpSnapshotDrop, e.Bytes(), nil, rpc.BulkNone)
		if errors.Is(err, proto.ErrNotExist) {
			missing[node] = true
			return nil
		}
		if err != nil {
			return err
		}
		return d.Done()
	})
	if err != nil {
		return err
	}
	for _, m := range missing {
		if !m {
			return nil
		}
	}
	return fmt.Errorf("snapshot %s: %w", tag, proto.ErrNotExist)
}

// Versions returns a path's stored version history, newest first — the
// vkv-style accessor. The history reflects the bounded retention
// window, not every write ever made.
func (c *Client) Versions(path string) ([]meta.Version, error) {
	p, err := meta.Clean(path)
	if err != nil {
		return nil, err
	}
	op := statOp(p, LiveEpoch, proto.StatWantVersions)
	r, err := c.metaOp(&op)
	return r.Versions, err
}

// ReadSnapshot reads [off, off+len(p)) of path as pinned at epoch,
// without a descriptor: snapshot content is immutable, so there is no
// position, no write-behind and no size cache to coordinate with. It is
// readRange at a finite epoch — the same fan-out as a live read, each
// request carrying the epoch, the size clamp taken from the metadata
// owner's view at that epoch, served by the primary replica only. At
// LiveEpoch it is a descriptor-free read of the live file.
func (c *Client) ReadSnapshot(path string, epoch uint64, p []byte, off int64) (int, error) {
	cp, err := meta.Clean(path)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("gekkofs: negative offset %d: %w", off, proto.ErrInval)
	}
	if len(p) == 0 {
		return 0, nil
	}
	size, err := c.readRange(cp, epoch, ioBuf{p: p}, off, 0)
	if err != nil {
		return 0, err
	}
	return clampEOF(len(p), off, size)
}
