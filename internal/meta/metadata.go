package meta

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Mode distinguishes the two object kinds GekkoFS knows about. The paper's
// relaxed POSIX drops permissions, ownership and links, so a single byte
// suffices.
type Mode uint8

// Object kinds stored in a metadata record.
const (
	// ModeRegular marks a regular file.
	ModeRegular Mode = iota
	// ModeDir marks a directory. Directories exist only as markers in the
	// flat namespace; they hold no entry lists.
	ModeDir
)

// Valid reports whether m is one of the two object kinds.
func (m Mode) Valid() bool { return m == ModeRegular || m == ModeDir }

// String returns "file" or "dir".
func (m Mode) String() string {
	switch m {
	case ModeRegular:
		return "file"
	case ModeDir:
		return "dir"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Metadata is the value stored under a path key in the daemon-local KV
// store. It deliberately carries only what the paper's relaxed-POSIX
// surface needs: kind, size and coarse timestamps. No permissions, no link
// counts, no owner.
type Metadata struct {
	// Mode is the object kind.
	Mode Mode
	// Size is the file size in bytes; zero for directories.
	Size int64
	// CTimeNS is the creation time in UNIX nanoseconds.
	CTimeNS int64
	// MTimeNS is the last-modification time in UNIX nanoseconds. GekkoFS
	// updates it on size-changing operations only (synchronous design,
	// no atime tracking).
	MTimeNS int64
}

// metadataWireSize is the fixed encoded size of a Metadata record.
const metadataWireSize = 1 + 8 + 8 + 8

// ErrBadMetadata reports a malformed encoded metadata record.
var ErrBadMetadata = errors.New("meta: malformed metadata record")

// Encode serializes m into a fixed-size little-endian record. The encoding
// plays the role of GekkoFS's packed metadata string stored in RocksDB.
func (m *Metadata) Encode() []byte {
	return m.appendTo(make([]byte, 0, metadataWireSize))
}

// appendTo appends the fixed-size record to b.
func (m *Metadata) appendTo(b []byte) []byte {
	b = append(b, byte(m.Mode))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Size))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.CTimeNS))
	return binary.LittleEndian.AppendUint64(b, uint64(m.MTimeNS))
}

// DecodeMetadata parses a record produced by Encode.
func DecodeMetadata(b []byte) (Metadata, error) {
	if len(b) != metadataWireSize {
		return Metadata{}, fmt.Errorf("%w: %d bytes", ErrBadMetadata, len(b))
	}
	return Metadata{
		Mode:    Mode(b[0]),
		Size:    int64(binary.LittleEndian.Uint64(b[1:])),
		CTimeNS: int64(binary.LittleEndian.Uint64(b[9:])),
		MTimeNS: int64(binary.LittleEndian.Uint64(b[17:])),
	}, nil
}

// IsDir reports whether the record describes a directory.
func (m *Metadata) IsDir() bool { return m.Mode == ModeDir }

// DirEntry is one element of a directory listing as returned by the
// daemons' readdir scan.
type DirEntry struct {
	// Name is the entry's final path component.
	Name string
	// IsDir reports whether the entry is a directory.
	IsDir bool
	// Size is the file size at scan time (eventually consistent).
	Size int64
}
