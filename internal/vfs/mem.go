package vfs

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Mem is an in-memory FS. It is safe for concurrent use. Mem tracks, per
// file, how many bytes have been made durable by Sync; CrashClone builds a
// new Mem holding only the durable prefix of every file, simulating a node
// crash between write and fsync, and ProcessCrashClone one holding every
// written byte, as a killed process leaves them.
type Mem struct {
	mu    sync.RWMutex
	files map[string]*memFile
	dirs  map[string]bool
}

// NewMem returns an empty in-memory file system.
func NewMem() *Mem {
	return &Mem{files: make(map[string]*memFile), dirs: map[string]bool{"": true}}
}

type memFile struct {
	mu     sync.RWMutex
	data   []byte
	synced int64 // durable prefix length
	name   string
}

// Create implements FS.
func (m *Mem) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{name: name}
	m.files[name] = f
	return f, nil
}

// OpenOrCreate implements FS.
func (m *Mem) OpenOrCreate(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.files[name]; ok {
		return f, nil
	}
	f := &memFile{name: name}
	m.files[name] = f
	return f, nil
}

// Open implements FS.
func (m *Mem) Open(name string) (File, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	f, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return f, nil
}

// Remove implements FS.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	delete(m.files, name)
	return nil
}

// Rename implements FS.
func (m *Mem) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, oldname)
	}
	delete(m.files, oldname)
	f.name = newname
	m.files[newname] = f
	return nil
}

// List implements FS.
func (m *Mem) List(dir string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	prefix := dir
	if prefix != "" && !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	var names []string
	for name := range m.files {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		rest := name[len(prefix):]
		if rest == "" || strings.Contains(rest, "/") {
			continue // not a direct child
		}
		names = append(names, rest)
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS.
func (m *Mem) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirs[dir] = true
	return nil
}

// Exists implements FS.
func (m *Mem) Exists(name string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.files[name]
	return ok
}

// CrashClone returns a new Mem containing, for every file, only the bytes
// that had been Synced when the clone was taken. It models a machine
// crash: everything after the last fsync is lost.
func (m *Mem) CrashClone() *Mem { return m.clone(true) }

// ProcessCrashClone returns a new Mem containing every byte written when
// the clone was taken, synced or not. It models a killed process: the
// kernel keeps what the process wrote.
func (m *Mem) ProcessCrashClone() *Mem { return m.clone(false) }

func (m *Mem) clone(syncedOnly bool) *Mem {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c := NewMem()
	for name, f := range m.files {
		f.mu.RLock()
		data := f.data
		if syncedOnly {
			data = data[:f.synced]
		}
		c.files[name] = &memFile{name: name, data: bytes.Clone(data), synced: f.synced}
		f.mu.RUnlock()
	}
	for d := range m.dirs {
		c.dirs[d] = true
	}
	return c
}

// TotalBytes returns the sum of all file sizes, used by tests asserting
// space reclamation after compaction.
func (m *Mem) TotalBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var n int64
	for _, f := range m.files {
		f.mu.RLock()
		n += int64(len(f.data))
		f.mu.RUnlock()
	}
	return n
}

// ReadAt implements File. Like os.File it answers a read reaching past
// the end with the bytes present and a bare io.EOF.
func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements File.
func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	// An extending write at least doubles the buffer: growing it to
	// exactly end copied the whole file per write, so a chunk written in
	// n pieces cost O(n²).
	if end, size := int(off)+len(p), len(f.data); end > size {
		if end > cap(f.data) {
			f.data = slices.Grow(f.data, max(end, 2*cap(f.data))-size)
		}
		f.data = f.data[:end]
		clear(f.data[size:])
	}
	copy(f.data[off:], p)
	return len(p), nil
}

// Append implements File.
func (f *memFile) Append(p []byte) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	off := int64(len(f.data))
	f.data = append(f.data, p...)
	return off, nil
}

// Size implements File.
func (f *memFile) Size() (int64, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return int64(len(f.data)), nil
}

// Sync implements File.
func (f *memFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.synced = int64(len(f.data))
	return nil
}

// Close implements File.
func (f *memFile) Close() error { return nil }
