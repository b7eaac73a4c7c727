// Package vfs is a minimal virtual file system boundary between storage
// engines (the KV store's WAL and checkpoint, the chunk store's chunk
// files) and the machine they run on.
//
// Two implementations are provided: OS (real files, used by the daemons
// when persisting to node-local storage, the paper's XFS-formatted SSD)
// and Mem (in-memory, used by tests, benchmarks and the in-process
// cluster). Mem additionally models the synced-versus-written distinction
// so crash-recovery tests can drop unsynced bytes, which is how the WAL
// replay path is verified without killing processes.
package vfs

import (
	"errors"
	"io"
)

// ErrNotExist reports an access to a file that does not exist.
var ErrNotExist = errors.New("vfs: file does not exist")

// ErrNoMap reports a file that cannot be mapped into memory (Map): an
// in-memory file, or any file on a platform without mmap.
var ErrNoMap = errors.New("vfs: file cannot be mapped")

// File is a random-access file handle.
type File interface {
	// ReadAt follows the io.ReaderAt contract on every implementation: a
	// read reaching past the end of the file returns the bytes present and
	// io.EOF, so a caller can clamp to the file's end without asking Size.
	io.ReaderAt
	io.WriterAt
	// Append writes p at the current end of file and returns the offset
	// at which it was placed.
	Append(p []byte) (off int64, err error)
	// Size returns the current file length in bytes.
	Size() (int64, error)
	// Sync makes previously written data durable (survives CrashClone on
	// Mem; fsync on OS).
	Sync() error
	io.Closer
}

// FS is the file system surface storage engines build on. Paths use '/'
// separators and are interpreted relative to the FS root.
type FS interface {
	// Create creates or truncates a file for writing and reading.
	Create(name string) (File, error)
	// Open opens an existing file for reading and writing.
	Open(name string) (File, error)
	// OpenOrCreate opens name, creating it empty if missing, without
	// truncating existing content. The check-and-create is atomic with
	// respect to concurrent OpenOrCreate calls.
	OpenOrCreate(name string) (File, error)
	// Remove deletes a file. Removing a missing file returns ErrNotExist.
	Remove(name string) error
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// List returns the names (not full paths) of files in dir, in
	// unspecified order. A missing directory lists as empty.
	List(dir string) ([]string, error)
	// MkdirAll ensures dir and its parents exist.
	MkdirAll(dir string) error
	// Exists reports whether name exists.
	Exists(name string) bool
}
