//go:build !unix

package vfs

// Lock is a no-op on this platform: nothing stops a second process from
// opening the same directory.
func Lock(fs FS) (release func() error, err error) { return func() error { return nil }, nil }
