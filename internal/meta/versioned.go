package meta

import (
	"encoding/binary"
	"fmt"
)

// A bare codec for a per-key version history, kept for one caller: the
// benchmark's codec probe (bench/probes.go, probeCodecs), which times
// VersionedMeta.Encode and DecodeVersionedMeta for meta.encode_ns and
// meta.decode_ns. No daemon stores this shape; every stored record is the
// 25-byte Metadata (record.go).
//
// Shape:
//
//	[0xF5] then, newest first, per version:
//	  [u64 epoch] [u8 flags] [25-byte Metadata payload, absent when
//	  flags has the tombstone bit]
//
// Epochs are strictly decreasing and a history holds at most MaxVersions
// entries.

// MaxVersions bounds a history's length.
const MaxVersions = 8

// versionedMagic opens every encoded history. 0xF5 is not a valid Mode
// byte, so a bare Metadata payload can never pass for a history.
const versionedMagic = 0xF5

// versionTombstone marks a version recording a removal.
const versionTombstone = 1 << 0

// versionHdrSize is the per-version fixed header: epoch plus flags.
const versionHdrSize = 8 + 1

// Version is one entry of a history.
type Version struct {
	// Epoch orders the entries.
	Epoch uint64
	// Tombstone records a removal; Meta is meaningless when set.
	Tombstone bool
	// Meta is the state the entry records.
	Meta Metadata
}

// VersionedMeta is a history, newest first with strictly decreasing
// epochs.
type VersionedMeta struct {
	// V holds the versions, newest first. Never empty after a
	// successful decode.
	V []Version
}

// Encode serializes the history.
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

// DecodeVersionedMeta parses what Encode wrote. Errors poison the whole
// history: a malformed one never yields a partial one.
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
