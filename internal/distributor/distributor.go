// Package distributor implements GekkoFS's pseudo-random data and metadata
// distribution ("wide striping", paper §III-B). Every client resolves the
// daemon responsible for a path or a chunk locally, by hashing, so the file
// system needs no central placement tables.
//
// SimpleHash is the paper's released placement: the path hashed for
// metadata, the pair (path, chunkID) for data. It is the only placement —
// a client resolving differently from its peers would look for bytes in
// the wrong daemon. The write-local alternative the paper contrasts it
// with (BurstFS, §II) is not built.
package distributor

import (
	"hash/fnv"

	"repro/internal/meta"
)

// hashPath hashes a path with FNV-1a, the same family of cheap
// non-cryptographic hash the released GekkoFS uses (std::hash).
func hashPath(path string) uint64 {
	h := fnv.New64a()
	// hash.Hash64.Write never fails.
	h.Write([]byte(path))
	return h.Sum64()
}

// hashPathChunk hashes the pair (path, chunk id).
func hashPathChunk(path string, id meta.ChunkID) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	var b [8]byte
	v := uint64(id)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64()
}

// SimpleHash is the paper's distribution: metadata to hash(path) mod N,
// chunk c of a file to hash(path, c) mod N.
type SimpleHash struct {
	n int
}

// NewSimpleHash returns a SimpleHash over n daemons; n must be > 0.
func NewSimpleHash(n int) *SimpleHash {
	if n <= 0 {
		panic("distributor: node count must be positive")
	}
	return &SimpleHash{n: n}
}

// MetaTarget returns the daemon index owning the metadata of path.
func (d *SimpleHash) MetaTarget(path string) int {
	return int(hashPath(path) % uint64(d.n))
}

// ChunkTarget returns the daemon index owning chunk id of path.
func (d *SimpleHash) ChunkTarget(path string, id meta.ChunkID) int {
	return int(hashPathChunk(path, id) % uint64(d.n))
}
