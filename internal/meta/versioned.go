package meta

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Versioned metadata records give the flat namespace a time dimension:
// each key carries a bounded, newest-first history of its states, one
// entry per snapshot epoch that observed a distinct state. There is one
// stored shape — a per-job file system never reads another build's data
// directory — and the record of a deployment that never took a snapshot
// is simply a history of one live version at epoch 0.
//
// Stored shape:
//
//	[0xF5] then, newest first, per version:
//	  [u64 epoch] [u8 flags] [25-byte Metadata payload, absent when
//	  flags has the tombstone bit]
//
// Epochs are strictly decreasing; a record holds at most MaxVersions
// entries (the bounded retention window — history beyond the window is
// compacted away, oldest first).
//
// This file also owns the namespace's transition rules: Create, Remove,
// Truncate and Grow each take a record, the operation's arguments and
// the (epoch, retained) stamp, and say what the store must do with the
// result. The daemon has one transaction that runs them; nothing else
// stamps a record.

// LiveEpoch is the epoch of a read that is not pinned to a snapshot:
// every version is at or below it, so At(LiveEpoch) is the live state.
const LiveEpoch uint64 = math.MaxUint64

// MaxVersions bounds a record's retention window. Snapshot GC keeps the
// versions retained tags still need; the cap is the hard ceiling even
// when more tags are live.
const MaxVersions = 8

// versionedMagic opens every stored record. 0xF5 is not a valid Mode
// byte, so a bare Metadata payload can never pass for a record.
const versionedMagic = 0xF5

// versionTombstone marks a version recording a removal: the key did not
// exist at that epoch.
const versionTombstone = 1 << 0

// versionHdrSize is the per-version fixed header: epoch plus flags.
const versionHdrSize = 8 + 1

// Version is one historical state of a metadata record.
type Version struct {
	// Epoch is the snapshot epoch this state was written under.
	Epoch uint64
	// Tombstone records a removal; Meta is meaningless when set.
	Tombstone bool
	// Meta is the record's state at Epoch.
	Meta Metadata
}

// VersionedMeta is a per-key history, newest first with strictly
// decreasing epochs. The vkv-style Versions accessor on the client
// surfaces exactly this slice.
type VersionedMeta struct {
	// V holds the versions, newest first. Never empty after a
	// successful decode.
	V []Version
}

// Encode serializes the history into the stored shape.
func (vm *VersionedMeta) Encode() []byte {
	n := 1
	for i := range vm.V {
		n += versionHdrSize
		if !vm.V[i].Tombstone {
			n += metadataWireSize
		}
	}
	b := make([]byte, 1, n)
	b[0] = versionedMagic
	for i := range vm.V {
		v := &vm.V[i]
		b = binary.LittleEndian.AppendUint64(b, v.Epoch)
		if v.Tombstone {
			b = append(b, versionTombstone)
			continue
		}
		b = v.Meta.appendTo(append(b, 0))
	}
	return b
}

// DecodeVersionedMeta parses a stored record. Errors poison the whole
// record: a malformed history never yields a partial one.
func DecodeVersionedMeta(b []byte) (VersionedMeta, error) {
	if len(b) < 1 || b[0] != versionedMagic {
		return VersionedMeta{}, fmt.Errorf("%w: %d bytes, no version magic", ErrBadMetadata, len(b))
	}
	rest := b[1:]
	var vm VersionedMeta
	for len(rest) > 0 {
		if len(vm.V) == MaxVersions {
			return VersionedMeta{}, fmt.Errorf("%w: more than %d versions", ErrBadMetadata, MaxVersions)
		}
		if len(rest) < versionHdrSize {
			return VersionedMeta{}, fmt.Errorf("%w: truncated version header", ErrBadMetadata)
		}
		v := Version{Epoch: binary.LittleEndian.Uint64(rest[:8])}
		flags := rest[8]
		rest = rest[versionHdrSize:]
		if flags&^versionTombstone != 0 {
			return VersionedMeta{}, fmt.Errorf("%w: unknown version flags %#x", ErrBadMetadata, flags)
		}
		v.Tombstone = flags&versionTombstone != 0
		if !v.Tombstone {
			if len(rest) < metadataWireSize {
				return VersionedMeta{}, fmt.Errorf("%w: truncated version payload", ErrBadMetadata)
			}
			md, err := DecodeMetadata(rest[:metadataWireSize])
			if err != nil {
				return VersionedMeta{}, err
			}
			if !md.Mode.Valid() {
				return VersionedMeta{}, fmt.Errorf("%w: bad mode %d in version payload", ErrBadMetadata, md.Mode)
			}
			v.Meta = md
			rest = rest[metadataWireSize:]
		}
		if n := len(vm.V); n > 0 && vm.V[n-1].Epoch <= v.Epoch {
			return VersionedMeta{}, fmt.Errorf("%w: epochs not strictly decreasing", ErrBadMetadata)
		}
		vm.V = append(vm.V, v)
	}
	if len(vm.V) == 0 {
		return VersionedMeta{}, fmt.Errorf("%w: empty version list", ErrBadMetadata)
	}
	return vm, nil
}

// Live returns the current metadata; ok is false when the key is absent
// (no versions) or its newest version is a tombstone.
func (vm *VersionedMeta) Live() (md Metadata, ok bool) {
	if len(vm.V) == 0 {
		return Metadata{}, false
	}
	return vm.V[0].Meta, !vm.V[0].Tombstone
}

// At returns the state visible at epoch s — the newest version with
// Epoch <= s; at LiveEpoch that is the live state. ok is false when the
// key did not exist at s (no such version, or it is a tombstone).
func (vm *VersionedMeta) At(s uint64) (md Metadata, ok bool) {
	for i := range vm.V {
		if vm.V[i].Epoch <= s {
			return vm.V[i].Meta, !vm.V[i].Tombstone
		}
	}
	return Metadata{}, false
}

// Stamp records md as the state at epoch. When the newest version
// already carries that epoch (or a later one — a write racing a
// snapshot commit folds into the state the snapshot captures) it is
// overwritten in place; otherwise a new newest version is pushed.
func (vm *VersionedMeta) Stamp(epoch uint64, md Metadata) {
	vm.stamp(Version{Epoch: epoch, Meta: md})
}

// StampTombstone records a removal at epoch, same folding rule as
// Stamp.
func (vm *VersionedMeta) StampTombstone(epoch uint64) {
	vm.stamp(Version{Epoch: epoch, Tombstone: true})
}

func (vm *VersionedMeta) stamp(v Version) {
	if len(vm.V) > 0 && vm.V[0].Epoch >= v.Epoch {
		v.Epoch = vm.V[0].Epoch
		vm.V[0] = v
		return
	}
	vm.V = append(vm.V, Version{})
	copy(vm.V[1:], vm.V)
	vm.V[0] = v
}

// Outcome is what a transition rule decided: what the store must do with
// the record (Put, Delete) or why the record was left as it was.
type Outcome uint8

// Transition outcomes.
const (
	// Put: the record changed; store its encoding.
	Put Outcome = iota
	// Delete: no reader, live or pinned, can see the key any more; drop it.
	Delete
	// Exists: refused, the path is live (create).
	Exists
	// NotExist: refused, the path is absent or removed.
	NotExist
	// IsDir: refused, the path is a directory.
	IsDir
)

// Create makes the path live as a fresh record of the given mode.
func (vm *VersionedMeta) Create(epoch uint64, retained []uint64, mode Mode, timeNS int64) Outcome {
	if _, live := vm.Live(); live {
		return Exists
	}
	vm.Stamp(epoch, Metadata{Mode: mode, CTimeNS: timeNS, MTimeNS: timeNS})
	vm.Compact(retained)
	return Put
}

// Remove tombstones the path and returns the state it had, so the client
// can tell whether chunks need collecting. With fileOnly a directory is
// refused. When no retained snapshot sees the old state only the
// tombstone survives compaction and the key is deleted outright.
func (vm *VersionedMeta) Remove(epoch uint64, retained []uint64, fileOnly bool) (Metadata, Outcome) {
	was, live := vm.Live()
	if !live {
		return Metadata{}, NotExist
	}
	if fileOnly && was.IsDir() {
		return Metadata{}, IsDir
	}
	vm.StampTombstone(epoch)
	vm.Compact(retained)
	if len(vm.V) == 1 {
		return was, Delete
	}
	return was, Put
}

// Truncate sets a live file's size exactly.
func (vm *VersionedMeta) Truncate(epoch uint64, retained []uint64, size, mtimeNS int64) Outcome {
	md, live := vm.Live()
	if !live {
		return NotExist
	}
	if md.IsDir() {
		return IsDir
	}
	md.Size, md.MTimeNS = size, mtimeNS
	vm.Stamp(epoch, md)
	vm.Compact(retained)
	return Put
}

// Grow applies one size-grow step at epoch: the newest version's size
// and mtime become the maximum of what they were and the candidate. An
// absent history (no versions) or a tombstoned key is recreated as a bare
// regular file at epoch — not at epoch 0, which would fabricate history
// earlier snapshots could see — and a newer epoch stamps a new version
// first, so a pinned snapshot keeps the pre-grow state. A live directory
// has no size to grow and is refused. The store applies a grow as a merge
// operand, so this is the step the daemon's merge operator runs (at
// insert and at replay, which is why it takes no retained set: compaction
// is not replayable) as well as the one the transaction runs to answer
// the caller and to let later sub-ops see the grown state.
func (vm *VersionedMeta) Grow(epoch uint64, size, mtimeNS int64) Outcome {
	switch {
	case len(vm.V) == 0:
		vm.V = []Version{{Epoch: epoch, Meta: Metadata{Mode: ModeRegular}}}
	case vm.V[0].Tombstone:
		vm.Stamp(epoch, Metadata{Mode: ModeRegular})
	case vm.V[0].Meta.IsDir():
		return IsDir
	case epoch > vm.V[0].Epoch:
		vm.Stamp(epoch, vm.V[0].Meta)
	}
	if len(vm.V) > MaxVersions {
		vm.V = vm.V[:MaxVersions]
	}
	m := &vm.V[0].Meta
	m.Size = max(m.Size, size)
	m.MTimeNS = max(m.MTimeNS, mtimeNS)
	return Put
}

// Compact drops versions no retained snapshot can see: it keeps the
// newest version plus, for each retained epoch, the version visible at
// it, then enforces MaxVersions by dropping oldest. retained need not
// be sorted.
func (vm *VersionedMeta) Compact(retained []uint64) {
	if len(vm.V) > 1 {
		keep := make([]bool, len(vm.V))
		keep[0] = true
		for _, s := range retained {
			for i := range vm.V {
				if vm.V[i].Epoch <= s {
					keep[i] = true
					break
				}
			}
		}
		out := vm.V[:0]
		for i := range vm.V {
			if keep[i] {
				out = append(out, vm.V[i])
			}
		}
		vm.V = out
	}
	if len(vm.V) > MaxVersions {
		vm.V = vm.V[:MaxVersions]
	}
}
