package meta

// The namespace's transition rules. A daemon stores each path's state as
// the bare 25-byte Metadata; a removed path has no record. Create,
// Remove, Truncate and Grow each take a path's Record, the operation's
// arguments, and say what the store must do with the result. The daemon
// has one transaction that runs them; nothing else writes a record.

// Record is one path's state as a transaction sees it: its metadata, or
// nothing when the path does not exist.
type Record struct {
	// Meta is the stored metadata; meaningless unless Exists.
	Meta Metadata
	// Exists reports whether the store holds a record for the path.
	Exists bool
}

// Outcome is what a transition rule decided: what the store must do with
// the record (Put, Delete) or why the record was left as it was.
type Outcome uint8

// Transition outcomes.
const (
	// Put: the record changed; store its encoding.
	Put Outcome = iota
	// Delete: the path is gone; drop its key.
	Delete
	// Exists: refused, the path exists (create).
	Exists
	// NotExist: refused, the path is absent.
	NotExist
	// IsDir: refused, the path is a directory.
	IsDir
)

// Create makes the path exist as a fresh record of the given mode.
func (r *Record) Create(mode Mode, timeNS int64) Outcome {
	if r.Exists {
		return Exists
	}
	*r = Record{Meta: Metadata{Mode: mode, CTimeNS: timeNS, MTimeNS: timeNS}, Exists: true}
	return Put
}

// Remove drops the path and returns the state it had, so the client can
// tell whether chunks need collecting. With fileOnly a directory is
// refused.
func (r *Record) Remove(fileOnly bool) (Metadata, Outcome) {
	if !r.Exists {
		return Metadata{}, NotExist
	}
	if fileOnly && r.Meta.IsDir() {
		return Metadata{}, IsDir
	}
	was := r.Meta
	*r = Record{}
	return was, Delete
}

// Truncate sets a file's size exactly.
func (r *Record) Truncate(size, mtimeNS int64) Outcome {
	if !r.Exists {
		return NotExist
	}
	if r.Meta.IsDir() {
		return IsDir
	}
	r.Meta.Size, r.Meta.MTimeNS = size, mtimeNS
	return Put
}

// Grow applies one size-grow step: size and mtime become the maximum of
// what they were and the candidate. An absent path is recreated as a bare
// regular file; a directory has no size to grow and is refused. The
// daemon's metadata transaction runs it once, under the key's lock, and
// commits the grown record as a put.
func (r *Record) Grow(size, mtimeNS int64) Outcome {
	if !r.Exists {
		*r = Record{Meta: Metadata{Mode: ModeRegular}, Exists: true}
	} else if r.Meta.IsDir() {
		return IsDir
	}
	r.Meta.Size = max(r.Meta.Size, size)
	r.Meta.MTimeNS = max(r.Meta.MTimeNS, mtimeNS)
	return Put
}
