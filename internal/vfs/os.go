package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// OS is an FS backed by a directory on the real file system — the
// node-local SSD scratch directory in a production deployment.
type OS struct {
	root string
}

// NewOS returns an FS rooted at dir. The directory is created if missing.
func NewOS(dir string) (*OS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vfs: root: %w", err)
	}
	return &OS{root: dir}, nil
}

func (o *OS) abs(name string) string { return filepath.Join(o.root, filepath.FromSlash(name)) }

// openCreating opens p with O_CREATE|flag, creating p's parent directory
// only when the open reports it missing: the common case — the directory
// exists — pays no stat of the parent.
func openCreating(p string, flag int) (File, error) {
	flag |= os.O_RDWR | os.O_CREATE
	f, err := os.OpenFile(p, flag, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return nil, err
		}
		f, err = os.OpenFile(p, flag, 0o644)
	}
	if err != nil {
		return nil, err
	}
	return &osFile{f: f}, nil
}

// Create implements FS.
func (o *OS) Create(name string) (File, error) { return openCreating(o.abs(name), os.O_TRUNC) }

// OpenOrCreate implements FS.
func (o *OS) OpenOrCreate(name string) (File, error) { return openCreating(o.abs(name), 0) }

// Open implements FS.
func (o *OS) Open(name string) (File, error) {
	f, err := os.OpenFile(o.abs(name), os.O_RDWR, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
		}
		return nil, err
	}
	return &osFile{f: f}, nil
}

// Remove implements FS.
func (o *OS) Remove(name string) error {
	err := os.Remove(o.abs(name))
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return err
}

// Rename implements FS.
func (o *OS) Rename(oldname, newname string) error {
	return os.Rename(o.abs(oldname), o.abs(newname))
}

// List implements FS.
func (o *OS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(o.abs(dir))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// MkdirAll implements FS.
func (o *OS) MkdirAll(dir string) error { return os.MkdirAll(o.abs(dir), 0o755) }

// Exists implements FS.
func (o *OS) Exists(name string) bool {
	_, err := os.Stat(o.abs(name))
	return err == nil
}

type osFile struct {
	f *os.File
}

func (f *osFile) ReadAt(p []byte, off int64) (int, error)  { return f.f.ReadAt(p, off) }
func (f *osFile) WriteAt(p []byte, off int64) (int, error) { return f.f.WriteAt(p, off) }

func (f *osFile) Append(p []byte) (int64, error) {
	off, err := f.f.Seek(0, 2)
	if err != nil {
		return 0, err
	}
	_, err = f.f.Write(p)
	return off, err
}

func (f *osFile) Size() (int64, error) {
	st, err := f.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (f *osFile) Sync() error  { return f.f.Sync() }
func (f *osFile) Close() error { return f.f.Close() }
