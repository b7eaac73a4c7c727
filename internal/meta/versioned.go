package meta

import (
	"encoding/binary"
	"fmt"
)

// Versioned metadata records give the flat namespace a time dimension:
// each key can carry a bounded, newest-first history of its states, one
// entry per snapshot epoch that observed a distinct state. The wire
// shape is chosen so every record the pre-snapshot code ever wrote is
// still valid: a plain 25-byte Metadata record decodes as a single live
// version at epoch 0, and records stay in that legacy shape until the
// first snapshot pins an epoch. Multi-version records are discriminated
// by a magic first byte that can never appear in a legacy record (no
// valid Mode is 0xF5).
//
// Versioned wire shape:
//
//	[0xF5] then, newest first, per version:
//	  [u64 epoch] [u8 flags] [25-byte Metadata payload, absent when
//	  flags has the tombstone bit]
//
// Epochs are strictly decreasing; a record holds at most MaxVersions
// entries (the bounded retention window — history beyond the window is
// compacted away, oldest first).

// MaxVersions bounds a record's retention window. Snapshot GC keeps the
// versions retained tags still need; the cap is the hard ceiling even
// when more tags are live.
const MaxVersions = 8

// versionedMagic discriminates multi-version records from legacy
// 25-byte Metadata records. 0xF5 is not a valid Mode byte.
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

// Encode serializes the history. A single live version at epoch 0 — the
// state of every record before any snapshot exists — encodes in the
// legacy 25-byte shape so snapshot-free deployments never pay the
// versioned framing.
func (vm *VersionedMeta) Encode() []byte {
	if len(vm.V) == 1 && !vm.V[0].Tombstone && vm.V[0].Epoch == 0 {
		return vm.V[0].Meta.Encode()
	}
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
		var hdr [versionHdrSize]byte
		binary.LittleEndian.PutUint64(hdr[:8], v.Epoch)
		if v.Tombstone {
			hdr[8] = versionTombstone
		}
		b = append(b, hdr[:]...)
		if !v.Tombstone {
			b = append(b, v.Meta.Encode()...)
		}
	}
	return b
}

// DecodeVersionedMeta parses a stored record in either shape. Errors
// poison the whole record: a malformed history never yields a partial
// one.
func DecodeVersionedMeta(b []byte) (VersionedMeta, error) {
	if len(b) == metadataWireSize && b[0] != versionedMagic {
		md, err := DecodeMetadata(b)
		if err != nil {
			return VersionedMeta{}, err
		}
		return VersionedMeta{V: []Version{{Meta: md}}}, nil
	}
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
			if md.Mode != ModeRegular && md.Mode != ModeDir {
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

// Newest returns the most recent version.
func (vm *VersionedMeta) Newest() *Version { return &vm.V[0] }

// Live returns the current metadata; ok is false when the newest
// version is a tombstone (the key reads as removed).
func (vm *VersionedMeta) Live() (md Metadata, ok bool) {
	v := vm.Newest()
	return v.Meta, !v.Tombstone
}

// At returns the state visible at snapshot epoch s — the newest version
// with Epoch <= s. ok is false when the key did not exist at s (no such
// version, or it is a tombstone).
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
	if len(vm.V) > 0 && vm.V[0].Epoch >= epoch {
		vm.V[0].Tombstone = false
		vm.V[0].Meta = md
		return
	}
	vm.V = append(vm.V, Version{})
	copy(vm.V[1:], vm.V)
	vm.V[0] = Version{Epoch: epoch, Meta: md}
}

// StampTombstone records a removal at epoch, same folding rule as
// Stamp.
func (vm *VersionedMeta) StampTombstone(epoch uint64) {
	if len(vm.V) > 0 && vm.V[0].Epoch >= epoch {
		vm.V[0].Tombstone = true
		vm.V[0].Meta = Metadata{}
		return
	}
	vm.V = append(vm.V, Version{})
	copy(vm.V[1:], vm.V)
	vm.V[0] = Version{Epoch: epoch, Tombstone: true}
}

// Grow applies one size-grow step at epoch: the newest version's size
// and mtime become the maximum of what they were and the candidate. An
// absent history (no versions) or a tombstoned key is recreated as a bare
// regular file at epoch — not at epoch 0, which would fabricate history
// earlier snapshots could see — and a newer epoch stamps a new version
// first, so a pinned snapshot keeps the pre-grow state. A live directory
// has no size to grow and is left untouched. It is the one definition of
// the step, shared by the daemon's merge operator (which also folds it
// at insert and replay) and the batch handler's overlay.
func (vm *VersionedMeta) Grow(epoch uint64, size, mtimeNS int64) {
	switch {
	case len(vm.V) == 0:
		vm.V = []Version{{Epoch: epoch, Meta: Metadata{Mode: ModeRegular}}}
	case vm.V[0].Tombstone:
		vm.Stamp(epoch, Metadata{Mode: ModeRegular})
	case vm.V[0].Meta.IsDir():
		return
	case epoch > vm.V[0].Epoch:
		vm.Stamp(epoch, vm.V[0].Meta)
	}
	if len(vm.V) > MaxVersions {
		vm.V = vm.V[:MaxVersions]
	}
	m := &vm.V[0].Meta
	m.Size = max(m.Size, size)
	m.MTimeNS = max(m.MTimeNS, mtimeNS)
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
