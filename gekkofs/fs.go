package gekkofs

import (
	"repro/internal/client"
	"repro/internal/staging"
)

// FS is one mounted view of the file system. All methods are safe for
// concurrent use; paths must be absolute ("/a/b") — the client library
// has no working directory.
type FS struct {
	c *client.Client
}

// Create opens path for reading and writing, creating it (or truncating
// an existing file). One metadata RPC regardless of directory size: the
// flat namespace has no directory entries to update.
func (fs *FS) Create(path string) (*File, error) {
	return fs.OpenFile(path, O_RDWR|O_CREATE|O_TRUNC)
}

// Open opens an existing file read-only.
func (fs *FS) Open(path string) (*File, error) {
	return fs.OpenFile(path, O_RDONLY)
}

// OpenFile opens path with the given flags.
func (fs *FS) OpenFile(path string, flags int) (*File, error) {
	fd, err := fs.c.Open(path, flags)
	if err != nil {
		return nil, err
	}
	return &File{fs: fs, fd: fd, name: path}, nil
}

// Mkdir creates a directory. GekkoFS directories are namespace markers;
// they hold no entry lists and cost one KV insert.
func (fs *FS) Mkdir(path string) error { return fs.c.Mkdir(path) }

// MkdirAll creates path and any missing parents.
func (fs *FS) MkdirAll(path string) error { return fs.c.MkdirAll(path) }

// Stat returns file information for path.
func (fs *FS) Stat(path string) (FileInfo, error) { return fs.c.Stat(path) }

// CreateMany creates zero-byte regular files at paths through the
// vectored metadata plane: operations are sharded by owning daemon and
// travel as one batched RPC per daemon instead of one per file. The
// result has one error per path, aligned with the input; a nil entry
// means that file was created. Unlike Create it returns no handles —
// it is the bulk-ingest primitive for checkpoint-style and mdtest-style
// workloads that create files first and write (or never write) later.
func (fs *FS) CreateMany(paths []string) []error { return fs.c.CreateMany(paths) }

// StatMany fetches file information for paths, one batched RPC per
// daemon. infos[i] is valid exactly when errs[i] is nil.
func (fs *FS) StatMany(paths []string) ([]FileInfo, []error) { return fs.c.StatMany(paths) }

// RemoveMany unlinks paths, one batched RPC per daemon plus chunk
// collection only for files that had data. Directories fall back to the
// one-path protocol (empty check first). One error per path, aligned
// with the input.
func (fs *FS) RemoveMany(paths []string) []error { return fs.c.RemoveMany(paths) }

// ReadDir lists a directory. Listings are eventually consistent under
// concurrent modification (paper §III-A); entries are sorted by name.
func (fs *FS) ReadDir(path string) ([]DirEntry, error) { return fs.c.ReadDir(path) }

// Remove unlinks a file or removes an empty directory.
func (fs *FS) Remove(path string) error { return fs.c.Remove(path) }

// Truncate sets a file's size.
func (fs *FS) Truncate(path string, size int64) error { return fs.c.Truncate(path, size) }

// Rename returns ErrNotSupported (paper §III-A).
func (fs *FS) Rename(oldpath, newpath string) error { return fs.c.Rename(oldpath, newpath) }

// Link returns ErrNotSupported (paper §III-A).
func (fs *FS) Link(oldpath, newpath string) error { return fs.c.Link(oldpath, newpath) }

// Symlink returns ErrNotSupported (paper §III-A).
func (fs *FS) Symlink(oldpath, newpath string) error { return fs.c.Symlink(oldpath, newpath) }

// Chmod returns ErrNotSupported: access control defers to the node-local
// file system (paper §III-A).
func (fs *FS) Chmod(path string, mode uint32) error { return fs.c.Chmod(path, mode) }

// StageIn copies the host directory tree under hostDir into the
// namespace at fsDir through the parallel staging engine: namespace
// creation rides the vectored metadata plane, file data moves through a
// bounded worker pool, zero runs become holes. Per-file failures are
// collected in the report (its Err method joins them); the returned
// error covers structural failures only.
func (fs *FS) StageIn(hostDir, fsDir string, opts StageOptions) (*StageReport, error) {
	return staging.StageIn(fs.c, hostDir, fsDir, opts)
}

// StageOut copies the namespace tree under fsDir to the host directory
// hostDir, preserving sparseness. Every read is the file as it is now.
func (fs *FS) StageOut(fsDir, hostDir string, opts StageOptions) (*StageReport, error) {
	return staging.StageOut(fs.c, fsDir, hostDir, opts)
}

// WriteFile creates path and writes data in one call.
func (fs *FS) WriteFile(path string, data []byte) error {
	f, err := fs.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads the whole file at path.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	info, err := fs.Stat(path)
	if err != nil {
		return nil, err
	}
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, info.Size())
	if len(buf) == 0 {
		return buf, nil
	}
	n, err := f.ReadAt(buf, 0)
	if err != nil && n != len(buf) {
		return nil, err
	}
	return buf[:n], nil
}

// File is an open file backed by the client's file map. It implements
// io.Reader, io.Writer, io.ReaderAt, io.WriterAt, io.Seeker and
// io.Closer.
type File struct {
	fs   *FS
	fd   int
	name string
}

// Name returns the path the file was opened with.
func (f *File) Name() string { return f.name }

// Read reads from the current position.
func (f *File) Read(p []byte) (int, error) { return f.fs.c.Read(f.fd, p) }

// ReadAt reads len(p) bytes at offset off.
func (f *File) ReadAt(p []byte, off int64) (int, error) { return f.fs.c.ReadAt(f.fd, p, off) }

// Write writes at the current position (at EOF under O_APPEND).
func (f *File) Write(p []byte) (int, error) { return f.fs.c.Write(f.fd, p) }

// WriteAt writes p at offset off.
func (f *File) WriteAt(p []byte, off int64) (int, error) { return f.fs.c.WriteAt(f.fd, p, off) }

// Seek repositions the descriptor.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	return f.fs.c.Seek(f.fd, offset, whence)
}

// Stat returns the file's current information (one RPC; sizes cached by
// WithSizeUpdateCache flush on Sync/Close).
func (f *File) Stat() (FileInfo, error) { return f.fs.c.Stat(f.name) }

// Sync is the write barrier. Data is already stored when writes return,
// so only deferred size updates move; a nil return means everything
// written so far is stored and its size visible.
func (f *File) Sync() error { return f.fs.c.Fsync(f.fd) }

// Close releases the descriptor with the same barrier semantics as Sync
// (the descriptor is released even when the barrier reports an error).
func (f *File) Close() error { return f.fs.c.Close(f.fd) }
