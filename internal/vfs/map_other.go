//go:build !unix

package vfs

// Map is unavailable on this platform: every file answers ErrNoMap, and
// callers read through ReadAt instead.
func Map(f File, n int) ([]byte, error) { return nil, ErrNoMap }

// CanMap reports false: no file maps on this platform.
func CanMap(fs FS) bool { return false }

// Unmap is unavailable on this platform; Map never returns a view.
func Unmap(m []byte) error { return ErrNoMap }
