package chunkstore

// Snapshot copy-on-write. A committed snapshot pins an epoch S; live
// chunks keep being overwritten in place, so the store preserves the
// superseded generation as a pre-image the first time a chunk is touched
// under a newer epoch. Pre-images live flat under "snap/", one file per
// superseded generation named "<escapedPath>.<id>.<E>" where E is the
// supersede epoch — the epoch of the first write that replaced the
// content. A snapshot read at S resolves to the pre-image with the
// smallest E > S, falling back to the live chunk when none exists; a
// zero-byte pre-image records that the chunk was a hole at pin time.
//
// The COW decision (and the pin itself, first-touch per chunk per epoch)
// runs under a single store-wide mutex, with the path's write lock held
// across the byte copy so an in-flight writer cannot tear the pre-image.
// The data write that follows runs outside both — steady-state writes
// pay one short critical section, not a copy.

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/meta"
	"repro/internal/vfs"
)

// snapDir is the flat pre-image directory. Flat because vfs.List only
// enumerates files, and a single directory lets a restarted daemon
// rebuild the pre-image index with one listing.
const snapDir = "snap"

// chunkKey identifies one chunk across the pre-image index and the
// last-write-epoch map. It doubles as the pre-image file-name prefix.
func chunkKey(path string, id meta.ChunkID) string {
	return escapePath(path) + "." + strconv.FormatUint(uint64(id), 10)
}

func preImageName(key string, epoch uint64) string {
	return snapDir + "/" + key + "." + strconv.FormatUint(epoch, 10)
}

// loadPreImages rebuilds the pre-image index from the snap/ directory —
// the only COW state that must survive a restart. The last-write-epoch
// map is deliberately not persisted; an unknown chunk is handled
// conservatively at the next write.
func (s *Store) loadPreImages() error {
	if err := s.fs.MkdirAll(snapDir); err != nil {
		return err
	}
	names, err := s.fs.List(snapDir)
	if err != nil {
		return err
	}
	for _, n := range names {
		i := strings.LastIndexByte(n, '.')
		if i < 0 {
			continue
		}
		epoch, err := strconv.ParseUint(n[i+1:], 10, 64)
		if err != nil {
			continue
		}
		key := n[:i]
		if j := strings.LastIndexByte(key, '.'); j < 0 {
			continue
		} else if _, err := strconv.ParseUint(key[j+1:], 10, 64); err != nil {
			continue
		}
		s.pre[key] = append(s.pre[key], epoch)
	}
	for _, epochs := range s.pre {
		sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	}
	return nil
}

// anyRetainedIn reports whether a retained epoch S satisfies
// lo <= S < hi.
func anyRetainedIn(retained []uint64, lo, hi uint64) bool {
	for _, r := range retained {
		if r >= lo && r < hi {
			return true
		}
	}
	return false
}

// needsPreImage decides, under cowMu, whether the live content of key
// must be pinned before a mutation stamped with epoch lands. When the
// last write epoch is known, a pin is needed exactly when a retained
// snapshot falls in [last, epoch) — it can still see the live content.
// When it is unknown (fresh process), the store pins conservatively
// unless this epoch already pinned the chunk; a redundant pre-image is
// never selected over an earlier, more precise one.
func (s *Store) needsPreImage(key string, epoch uint64, retained []uint64) bool {
	if last, ok := s.last[key]; ok {
		return last < epoch && anyRetainedIn(retained, last, epoch)
	}
	if !anyRetainedIn(retained, 0, epoch) {
		return false
	}
	for _, e := range s.pre[key] {
		if e == epoch {
			return false
		}
	}
	return true
}

// addPre records a pinned pre-image in the sorted index. Under cowMu.
func (s *Store) addPre(key string, epoch uint64) {
	epochs := s.pre[key]
	i := sort.Search(len(epochs), func(i int) bool { return epochs[i] >= epoch })
	if i < len(epochs) && epochs[i] == epoch {
		return
	}
	epochs = append(epochs, 0)
	copy(epochs[i+1:], epochs[i:])
	epochs[i] = epoch
	s.pre[key] = epochs
}

// bumpLast advances the known last-write epoch. Under cowMu.
func (s *Store) bumpLast(key string, epoch uint64) {
	if last, ok := s.last[key]; !ok || epoch > last {
		s.last[key] = epoch
	}
}

// copyPreImage pins the live content of (path, id) as the pre-image
// superseded at epoch. A missing live chunk pins as a zero-byte file —
// the hole marker. The copy is written to a sibling file and renamed
// into place (replaceFile), so a failed or interrupted copy leaves no
// pre-image a restarted store would index (loadPreImages skips the
// sibling's name). Caller holds cowMu and the path's write lock.
func (s *Store) copyPreImage(path string, id meta.ChunkID, key string, epoch uint64) error {
	var buf []byte
	f, err := s.fs.Open(chunkFile(path, id))
	if err == nil {
		var size int64
		if size, err = f.Size(); err == nil && size > 0 {
			buf = make([]byte, size)
			_, err = f.ReadAt(buf, 0)
		}
		f.Close()
	} else if errors.Is(err, vfs.ErrNotExist) {
		err = nil
	}
	if err == nil {
		err = s.replaceFile(preImageName(key, epoch), buf)
	}
	if err != nil {
		return fmt.Errorf("chunkstore: pin %s#%d: %w", path, id, err)
	}
	s.cowCopies.Add(1)
	s.cowBytes.Add(uint64(len(buf)))
	return nil
}

// WriteChunkEpoch is WriteChunk under snapshot retention: before the
// write lands it pins the superseded generation if any retained snapshot
// still needs it.
func (s *Store) WriteChunkEpoch(path string, id meta.ChunkID, offset int64, data []byte, epoch uint64, retained []uint64) error {
	key := chunkKey(path, id)
	s.cowMu.Lock()
	if s.needsPreImage(key, epoch, retained) {
		l := s.lockFor(path)
		l.Lock()
		err := s.copyPreImage(path, id, key, epoch)
		l.Unlock()
		if err != nil {
			s.cowMu.Unlock()
			return err
		}
		s.addPre(key, epoch)
	}
	s.bumpLast(key, epoch)
	s.cowMu.Unlock()
	return s.WriteChunk(path, id, offset, data)
}

// ReadChunkAt reads chunk id of path as it was at snapshot epoch at: the
// pre-image with the smallest supersede epoch above at, or the live
// chunk when the content was never superseded. At meta.LiveEpoch nothing
// can supersede the live chunk and the index is not consulted.
//
// "No pre-image, so read the live chunk" must stay true until the read is
// done: the first overwrite after the pin copies its pre-image under
// cowMu and the path's write lock (WriteChunkEpoch), so the path's read
// lock is taken before cowMu is released — the same cowMu → path order —
// and held across the read. The overwrite then either indexed its
// pre-image before the lookup or cannot start copying until the read
// ends.
func (s *Store) ReadChunkAt(path string, id meta.ChunkID, offset int64, dst []byte, at uint64) (int, error) {
	if at == meta.LiveEpoch {
		return s.ReadChunk(path, id, offset, dst)
	}
	key := chunkKey(path, id)
	s.cowMu.Lock()
	for _, e := range s.pre[key] {
		if e > at {
			s.cowMu.Unlock()
			// Pre-images are immutable once indexed: no lock needed, and
			// nothing to gain from keeping them open — a stage-out reads
			// each once.
			n, err := s.readPreImage(preImageName(key, e), offset, dst)
			if err != nil {
				return 0, fmt.Errorf("chunkstore: snapshot read %s#%d@%d: %w", path, id, at, err)
			}
			s.open.copiedBytes.Add(uint64(n))
			return n, nil
		}
	}
	l := s.lockFor(path)
	l.RLock()
	s.cowMu.Unlock()
	defer l.RUnlock()
	return s.readLive(path, id, offset, dst)
}

// readPreImage reads from a pre-image file; one GCPreImages removed under
// the reader reads as a hole.
func (s *Store) readPreImage(name string, offset int64, dst []byte) (int, error) {
	f, err := s.fs.Open(name)
	if errors.Is(err, vfs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return readFileAt(f, offset, dst)
}

// RemoveChunksEpoch is RemoveChunks under snapshot retention: chunks a
// retained snapshot can still see move to pre-images (a rename, no byte
// copy) instead of being deleted.
func (s *Store) RemoveChunksEpoch(path string, epoch uint64, retained []uint64) error {
	s.cowMu.Lock()
	defer s.cowMu.Unlock()
	l := s.lockFor(path)
	l.Lock()
	defer l.Unlock()
	// A handle kept across the rename below would follow the chunk into
	// its pre-image and let a later write alter the pinned epoch.
	s.open.dropPath(path)
	dir := chunkDir(path)
	names, err := s.fs.List(dir)
	if err != nil {
		return err
	}
	for _, n := range names {
		id, err := strconv.ParseUint(n, 10, 64)
		if err != nil {
			continue // foreign file; leave it
		}
		key := chunkKey(path, meta.ChunkID(id))
		if s.needsPreImage(key, epoch, retained) {
			if err := s.fs.Rename(dir+"/"+n, preImageName(key, epoch)); err != nil {
				return fmt.Errorf("chunkstore: remove %s: %w", path, err)
			}
			s.addPre(key, epoch)
			s.cowCopies.Add(1)
		} else if err := s.fs.Remove(dir + "/" + n); err != nil {
			return fmt.Errorf("chunkstore: remove %s: %w", path, err)
		}
		s.bumpLast(key, epoch)
	}
	return nil
}

// TruncateChunksEpoch is TruncateChunks under snapshot retention:
// discarded chunks move to pre-images, and a final chunk about to be
// trimmed in place is pinned by copy first.
func (s *Store) TruncateChunksEpoch(path string, chunkSize, newSize int64, epoch uint64, retained []uint64) error {
	s.cowMu.Lock()
	keep := meta.ChunksForSize(newSize, chunkSize)
	l := s.lockFor(path)
	l.Lock()
	s.open.dropPath(path) // as in RemoveChunksEpoch: chunks are renamed below
	dir := chunkDir(path)
	names, err := s.fs.List(dir)
	if err == nil {
		for _, n := range names {
			id, perr := strconv.ParseUint(n, 10, 64)
			if perr != nil {
				continue
			}
			if int64(id) < keep {
				continue
			}
			key := chunkKey(path, meta.ChunkID(id))
			if s.needsPreImage(key, epoch, retained) {
				err = s.fs.Rename(dir+"/"+n, preImageName(key, epoch))
				if err == nil {
					s.addPre(key, epoch)
					s.cowCopies.Add(1)
				}
			} else {
				err = s.fs.Remove(dir + "/" + n)
			}
			if err != nil {
				break
			}
			s.bumpLast(key, epoch)
		}
	}
	if err == nil && keep > 0 && newSize%chunkSize != 0 {
		lastID := meta.ChunkID(keep - 1)
		key := chunkKey(path, lastID)
		if s.needsPreImage(key, epoch, retained) {
			err = s.copyPreImage(path, lastID, key, epoch)
			if err == nil {
				s.addPre(key, epoch)
			}
		}
		if err == nil {
			s.bumpLast(key, epoch)
		}
	}
	l.Unlock()
	s.cowMu.Unlock()
	if err != nil {
		return fmt.Errorf("chunkstore: truncate %s: %w", path, err)
	}
	return s.TruncateChunks(path, chunkSize, newSize)
}

// GCPreImages deletes every pre-image no retained snapshot can select: a
// pre-image superseded at E serves only reads at epochs strictly below
// E, so it survives exactly while a retained S < E exists.
func (s *Store) GCPreImages(retained []uint64) error {
	s.cowMu.Lock()
	defer s.cowMu.Unlock()
	var firstErr error
	for key, epochs := range s.pre {
		kept := epochs[:0]
		for _, e := range epochs {
			if anyRetainedIn(retained, 0, e) {
				kept = append(kept, e)
				continue
			}
			if err := s.fs.Remove(preImageName(key, e)); err != nil && !errors.Is(err, vfs.ErrNotExist) {
				if firstErr == nil {
					firstErr = err
				}
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			delete(s.pre, key)
		} else {
			s.pre[key] = kept
		}
	}
	return firstErr
}

// CowStats reports the cumulative pre-image pins and pinned bytes.
func (s *Store) CowStats() (copies, bytes uint64) {
	return s.cowCopies.Load(), s.cowBytes.Load()
}
