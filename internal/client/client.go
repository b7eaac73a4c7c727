// Package client implements the GekkoFS client library (paper §III-B,
// Fig. 1). The paper's client is an LD_PRELOAD interposition library; the
// Go-native equivalent exposes the same operations as methods. Everything
// behind the call boundary is faithful to the paper:
//
//   - a file map tracks open files independently of the kernel,
//   - every operation resolves its target daemon locally by hashing
//     (no central placement tables),
//   - reads and writes are split into chunk spans and issued as parallel
//     RPCs to the owning daemons, with data in bulk regions,
//   - operations are synchronous and cache-less by default: a write
//     returns once its chunks' daemons have stored it; the opt-in
//     exceptions are the paper's size-update cache for the shared-file
//     bottleneck (§IV-B) and read-ahead over an in-flight window
//     (window.go),
//   - rename, links and permissions are unsupported (§III-A).
package client

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distributor"
	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// Re-exported flag bits (values match package os).
const (
	O_RDONLY = os.O_RDONLY
	O_WRONLY = os.O_WRONLY
	O_RDWR   = os.O_RDWR
	O_CREATE = os.O_CREATE
	O_EXCL   = os.O_EXCL
	O_TRUNC  = os.O_TRUNC
	O_APPEND = os.O_APPEND
)

// ErrBadFD reports an operation on an unknown or closed file descriptor.
var ErrBadFD = errors.New("gekkofs: bad file descriptor")

// ErrDegraded reports that a daemon an operation needs did not answer:
// the holder of a chunk it reads or writes, the metadata owner of a path
// it resolves, or a daemon of a listing. Every chunk and every record has
// one home, so the operation fails; the error text names op, path and
// daemon (opErr).
var ErrDegraded = errors.New("gekkofs: degraded: a daemon did not answer")

// transportError reports whether err is a transport-level failure (dead
// or unreachable daemon, closed pool, timeout) as opposed to an answer
// the daemon itself produced: a decoded errno or a remote handler error.
func transportError(err error) bool {
	if err == nil {
		return false
	}
	var re *rpc.RemoteError
	if errors.As(err, &re) {
		return false
	}
	for _, answer := range []error{
		proto.ErrNotExist, proto.ErrExist, proto.ErrIsDir, proto.ErrNotDir,
		proto.ErrNotEmpty, proto.ErrInval, proto.ErrNotSupported,
	} {
		if errors.Is(err, answer) {
			return false
		}
	}
	return true
}

// opErr attributes a failed RPC to the operation, the path and the daemon
// node it was for: "<op> <path>: daemon <node>: <cause>". A daemon that did
// not answer also matches ErrDegraded; its answer surfaces as itself.
func opErr(op, path string, node int, err error) error {
	if transportError(err) {
		return fmt.Errorf("%s %s: daemon %d: %w: %w", op, path, node, ErrDegraded, err)
	}
	return fmt.Errorf("%s %s: daemon %d: %w", op, path, node, err)
}

// lostErr is opErr for a daemon that did not answer; an answer it gave —
// an errno, a refused request — is returned as it is, so callers
// comparing sentinels see exactly what the daemon said.
func lostErr(op, path string, node int, err error) error {
	if !transportError(err) {
		return err
	}
	return opErr(op, path, node, err)
}

// Config wires a client to a cluster.
type Config struct {
	// Conns are connections to every daemon, indexed by daemon id:
	// paths and chunks resolve to daemons by the paper's hashing over
	// len(Conns) (distributor.SimpleHash).
	Conns []rpc.Conn
	// ChunkSize is the deployment's chunk size. Zero learns it from the
	// daemons at mount time (VerifyProtocol; the 512 KiB default until
	// then); a set value is checked against theirs instead.
	ChunkSize int64
	// SizeCacheOps > 0 buffers file-size updates client-side and flushes
	// them every SizeCacheOps writes (and on close/sync) — the paper's
	// shared-file fix. Zero keeps the strict synchronous protocol.
	SizeCacheOps int
	// AsyncWrites is ignored: every write returns once its daemons have
	// the bytes. Write-behind was deleted because it did not beat the
	// synchronous path on a streaming checkpoint; the field stays until
	// the benchmark module (bench/), which still sets it, drops it.
	AsyncWrites bool
	// ReadAhead enables sequential read-ahead on every
	// read-capable descriptor: once a descriptor's reads are sequential,
	// the spans just past them are fetched into a bounded per-descriptor
	// window the next reads copy from (see readahead.go).
	ReadAhead bool
	// Telemetry, when non-nil, receives the client's metrics: per-RPC
	// round-trip histograms, the in-flight gauge, pool/segment wait
	// histograms (internal/telemetry/names.go) and the ClientStats
	// counters by their tags. Nil disables all recording — the
	// instrumented paths reduce to single branches.
	Telemetry *telemetry.Registry
	// TraceSample sets the RPC trace sampling interval: every N-th call
	// carries a trace ID to the daemon and both ends log a span event.
	// Zero selects DefaultTraceSample; sampling requires Telemetry.
	TraceSample int
}

// Client is one application's view of the file system.
type Client struct {
	// cfg is the Config New was given, normalised — the only copy of
	// every tunable: the code reads c.cfg.X where the knob takes effect.
	cfg Config
	// dist resolves paths and chunks to indexes into cfg.Conns.
	dist *distributor.SimpleHash
	// adoptChunk: Config.ChunkSize was left zero, so VerifyProtocol
	// replaces cfg.ChunkSize with the daemons' instead of checking theirs.
	adoptChunk  bool
	readDirPage uint32 // entries requested per OpReadDir page

	// live holds the client's counters, bumped in place with one atomic
	// add each; Stats copies them and the telemetry registry folds them in.
	live ClientStats

	// tel is the client metric set (telemetry.go); zero-valued (all nil
	// metrics) when Config.Telemetry was nil.
	tel clientTelemetry

	mu sync.Mutex
	// sizeGen counts this client's own Truncate and Remove calls: the
	// generation every size view checks an answer against (sizeview.go).
	// Beside mu, whose cache line its writers hold anyway, not beside the
	// fields every RPC reads.
	sizeGen atomic.Uint64
	files   map[int]*openFile    // guarded by mu
	views   map[string]*sizeView // guarded by mu; the open paths' size views
	nextFD  int                  // guarded by mu
}

// openFile is a file-map slot.
type openFile struct {
	mu    sync.Mutex
	path  string
	flags int
	pos   int64

	// view is what this client knows about the path's size, shared with
	// its other descriptors of the path; cand is this descriptor's unsent
	// candidate (sizeview.go). home backs view when this descriptor was
	// its path's first open, so a view costs no allocation of its own.
	view     *sizeView
	cand     sizeCand
	home     sizeView
	sameNext *openFile // guarded by Client.mu; the next descriptor of view.files

	// ra is the descriptor's read-ahead window (active when
	// Config.ReadAhead is on and the descriptor can read).
	ra *readahead
}

// New builds a client.
func New(cfg Config) (*Client, error) {
	if len(cfg.Conns) == 0 {
		return nil, errors.New("client: no daemon connections")
	}
	adopt := cfg.ChunkSize == 0
	if adopt {
		cfg.ChunkSize = meta.DefaultChunkSize // until VerifyProtocol asks the daemons
	}
	if cfg.ChunkSize < 0 {
		return nil, fmt.Errorf("client: invalid chunk size %d", cfg.ChunkSize)
	}
	c := &Client{
		cfg:         cfg,
		dist:        distributor.NewSimpleHash(len(cfg.Conns)),
		adoptChunk:  adopt,
		readDirPage: proto.DefaultReadDirPage,
		files:       make(map[int]*openFile),
		views:       make(map[string]*sizeView),
		nextFD:      3,
	}
	c.initTelemetry(cfg.Telemetry, cfg.TraceSample)
	return c, nil
}

// ChunkSize returns the chunk size in effect: the configured one, or the
// one VerifyProtocol learned from the daemons.
func (c *Client) ChunkSize() int64 { return c.cfg.ChunkSize }

// call issues one RPC and peels the errno header off the response. Its
// bulk region is the windows, in order, in direction dir (none for no
// windows). This is the client's RPC chokepoint: round-trip timing, the
// in-flight gauge and trace sampling all live here, so every caller —
// metadata, chunk I/O, read-ahead — is covered.
func (c *Client) call(node int, op rpc.Op, payload []byte, dir rpc.BulkDir, windows ...[]byte) (*rpc.Dec, error) {
	var tr rpc.Trace
	var t0 time.Time
	if c.tel.reg != nil {
		tr = c.nextTrace()
		c.tel.inflight.Add(1)
		t0 = time.Now()
	}
	resp, err := rpc.Call(c.cfg.Conns[node], op, payload, windows, dir, tr)
	if c.tel.reg != nil {
		elapsed := time.Since(t0)
		c.tel.inflight.Add(-1)
		c.tel.rpcHist(op).Observe(int64(elapsed))
		if tr.Sampled() {
			c.emitTrace(node, op, tr, elapsed, err)
		}
	}
	if err != nil {
		return nil, err
	}
	d := rpc.NewDec(resp)
	if errno := proto.Errno(d.U16()); errno != proto.OK {
		return nil, errno.Err()
	}
	return d, nil
}

// fanOut runs fn for every daemon in parallel and returns the first error.
func (c *Client) fanOut(fn func(node int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(c.cfg.Conns))
	for n := range c.cfg.Conns {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			errs[n] = fn(n)
		}(n)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// EnsureRoot creates the root directory record if missing. Mount calls it
// once; it is idempotent across clients.
func (c *Client) EnsureRoot() error {
	err := c.createPath(meta.Root, meta.ModeDir)
	if errors.Is(err, proto.ErrExist) {
		return nil
	}
	return err
}

// metaOp sends one metadata operation under its kind's own op code — the
// single-op framing of the plane batchMeta vectors. The request is the
// sub-op's body and the reply its result, byte for byte. A metadata owner
// that does not answer fails the op with ErrDegraded (lostErr).
func (c *Client) metaOp(op *proto.MetaOp) (proto.MetaResult, error) {
	e := rpc.NewEnc(len(op.Path) + 24)
	proto.EncodeMetaOpBody(e, op)
	var r proto.MetaResult
	node := c.dist.MetaTarget(op.Path)
	d, err := c.call(node, rpc.Op(op.Kind), e.Bytes(), rpc.BulkNone)
	if err != nil {
		return r, lostErr(proto.OpName(rpc.Op(op.Kind)), op.Path, node, err)
	}
	proto.DecodeMetaResultBody(d, op, &r)
	return r, d.Done()
}

func (c *Client) createPath(path string, mode meta.Mode) error {
	_, err := c.metaOp(&proto.MetaOp{Kind: proto.MetaOpCreate, Path: path, Mode: mode, TimeNS: time.Now().UnixNano()})
	return err
}

// statPath fetches a path's metadata.
func (c *Client) statPath(path string) (meta.Metadata, error) {
	r, err := c.metaOp(&proto.MetaOp{Kind: proto.MetaOpStat, Path: path})
	if err != nil {
		return meta.Metadata{}, err
	}
	return meta.DecodeMetadata(r.Blob)
}

// Mkdir creates a directory. The parent must exist (one stat RPC); the
// entry itself is a single KV insert — directories carry no entry lists.
func (c *Client) Mkdir(path string) error {
	p, err := meta.Clean(path)
	if err != nil {
		return err
	}
	if p == meta.Root {
		return proto.ErrExist
	}
	if parent := meta.Parent(p); parent != meta.Root {
		md, err := c.statPath(parent)
		if err != nil {
			return err
		}
		if !md.IsDir() {
			return proto.ErrNotDir
		}
	}
	return c.createPath(p, meta.ModeDir)
}

// MkdirAll creates path and any missing parents, tolerating components
// that already exist. One RPC per component; the facade's MkdirAll and
// staging's destination-root creation share it.
func (c *Client) MkdirAll(path string) error {
	p, err := meta.Clean(path)
	if err != nil {
		return err
	}
	if p == meta.Root {
		return nil
	}
	cur := ""
	for _, part := range strings.Split(strings.TrimPrefix(p, "/"), "/") {
		cur += "/" + part
		if err := c.Mkdir(cur); err != nil && !errors.Is(err, proto.ErrExist) {
			return err
		}
	}
	return nil
}

// Open opens (and with O_CREATE creates) a file, returning a descriptor
// from the client-side file map. Directories cannot be opened; GekkoFS
// applications list them via ReadDir.
func (c *Client) Open(path string, flags int) (int, error) {
	p, err := meta.Clean(path)
	if err != nil {
		return -1, err
	}
	accMode := flags & (O_RDONLY | O_WRONLY | O_RDWR)
	gen := c.sizeGen.Load()
	var size int64 // what the metadata owner says the file holds once open returns
	exists := true
	if flags&O_CREATE != 0 {
		// The flat namespace makes file creation a single RPC: no parent
		// lookups, no directory entry insertion (paper §III-B).
		switch err := c.createPath(p, meta.ModeRegular); {
		case err == nil:
			exists = false
		case !errors.Is(err, proto.ErrExist):
			return -1, err
		case flags&O_EXCL != 0:
			return -1, proto.ErrExist
		}
	}
	if exists {
		md, err := c.statPath(p)
		if err != nil {
			return -1, err
		}
		if md.IsDir() {
			return -1, proto.ErrIsDir
		}
		// O_TRUNC empties an existing file opened for writing, or with O_CREATE.
		if size = md.Size; flags&O_TRUNC != 0 && size > 0 && (flags&O_CREATE != 0 || accMode != O_RDONLY) {
			if err := c.Truncate(p, 0); err != nil {
				return -1, err
			}
			size = 0
		}
	}

	of := &openFile{path: p, flags: flags}
	if c.cfg.ReadAhead && accMode != O_WRONLY {
		of.ra = newReadahead(c.cfg.ChunkSize * prefetchSpanChunks)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	fd := c.nextFD
	c.nextFD++
	c.files[fd] = of
	c.attachLocked(of, gen, size)
	return fd, nil
}

// Create is shorthand for Open(path, O_RDWR|O_CREATE|O_TRUNC).
func (c *Client) Create(path string) (int, error) {
	return c.Open(path, O_RDWR|O_CREATE|O_TRUNC)
}

func (c *Client) lookupFD(fd int) (*openFile, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	of, ok := c.files[fd]
	if !ok {
		return nil, ErrBadFD
	}
	return of, nil
}

// lookupIO is lookupFD for a write (or, write false, a read): a
// descriptor opened without that access is ErrInval.
func (c *Client) lookupIO(fd int, write bool) (*openFile, error) {
	of, err := c.lookupFD(fd)
	if err != nil {
		return nil, err
	}
	if write && of.flags&(O_WRONLY|O_RDWR) == 0 {
		return nil, proto.ErrInval // opened read-only
	}
	if !write && of.flags&O_WRONLY != 0 && of.flags&O_RDWR == 0 {
		return nil, proto.ErrInval // opened write-only
	}
	return of, nil
}

// Close releases a descriptor. It is a barrier: it flushes the
// descriptor's deferred size update. The descriptor is released even
// when the flush reports an error, and its read-ahead window with it.
func (c *Client) Close(fd int) error {
	c.mu.Lock()
	of, ok := c.files[fd]
	if ok {
		delete(c.files, fd)
		c.detachLocked(of)
	}
	c.mu.Unlock()
	if !ok {
		return ErrBadFD
	}
	if of.ra != nil {
		of.ra.close()
	}
	of.mu.Lock()
	defer of.mu.Unlock()
	return c.flushSizeLocked(of)
}

// Fsync is the write barrier; a nil return means every prior write on
// this descriptor is stored and its size is visible cluster-wide. Data
// needs no flushing — every write RPC is acknowledged only after the
// daemon stored it — so only deferred size updates move: the size
// cache's candidate, and the one update that stands for every rewrite below the descriptor's floor
// since the last barrier (it carries their largest end and the time, so
// this is where such rewrites become visible in the file's mtime). A
// descriptor that wrote nothing sends nothing.
func (c *Client) Fsync(fd int) error {
	of, err := c.lookupFD(fd)
	if err != nil {
		return err
	}
	of.mu.Lock()
	defer of.mu.Unlock()
	return c.flushSizeLocked(of)
}

// VerifyProtocol pings every daemon (ProbeDaemon) and checks that it is
// the daemon this mount takes it for: this client's protocol generation,
// an ID equal to its index in the connection list, the mount's chunk
// size. Frames carry no version tags and chunk handlers take spans on
// trust, so this is the guard that turns a mixed-generation cluster, a
// permuted daemon list or a wrong chunk size into one clear mount-time
// error (ErrDaemonMismatch) instead of undecodable replies, mis-placed
// paths or wrong bytes mid-I/O. A client whose Config.ChunkSize was zero
// adopts the daemons' chunk size here — call it before any I/O, as every
// mount does. A daemon that does not answer fails the mount, named.
func (c *Client) VerifyProtocol() error {
	infos := make([]DaemonInfo, len(c.cfg.Conns))
	errs := make([]error, len(c.cfg.Conns))
	c.fanOut(func(node int) (err error) {
		if infos[node], err = ProbeDaemon(c.cfg.Conns[node]); err != nil {
			errs[node] = fmt.Errorf("mount: ping daemon %d: %w", node, err)
		}
		return nil
	})
	answered := make([]int, 0, len(errs))
	for node, err := range errs {
		if err == nil {
			answered = append(answered, node)
		}
	}
	// The chunk size every daemon must report: the configured one, or —
	// learning it — the first answering daemon's.
	chunk, from := c.cfg.ChunkSize, "the mount is configured for"
	if c.adoptChunk && len(answered) > 0 {
		chunk, from = infos[answered[0]].ChunkSize, fmt.Sprintf("daemon %d reports", answered[0])
	}
	for _, node := range answered {
		errs[node] = checkDaemon(node, infos[node], chunk, from)
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	c.cfg.ChunkSize = chunk
	return nil
}

// PathOf reports the path behind a descriptor (tooling).
func (c *Client) PathOf(fd int) (string, error) {
	of, err := c.lookupFD(fd)
	if err != nil {
		return "", err
	}
	return of.path, nil
}

// Seek adjusts a descriptor's position. SEEK_END costs one stat RPC.
func (c *Client) Seek(fd int, offset int64, whence int) (int64, error) {
	of, err := c.lookupFD(fd)
	if err != nil {
		return 0, err
	}
	of.mu.Lock()
	defer of.mu.Unlock()
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = of.pos
	case io.SeekEnd:
		md, err := c.statPath(of.path)
		if err != nil {
			return 0, err
		}
		base = of.cand.eof(md.Size)
	default:
		return 0, proto.ErrInval
	}
	np := base + offset
	if np < 0 {
		return 0, proto.ErrInval
	}
	of.pos = np
	return np, nil
}

// Stat returns a path's file information.
func (c *Client) Stat(path string) (FileInfo, error) {
	p, err := meta.Clean(path)
	if err != nil {
		return FileInfo{}, err
	}
	md, err := c.statPath(p)
	if err != nil {
		return FileInfo{}, err
	}
	return infoFromMeta(p, md), nil
}

// FileInfo describes a file or directory.
type FileInfo struct {
	name  string
	size  int64
	isDir bool
	mtime time.Time
	ctime time.Time
}

func infoFromMeta(path string, md meta.Metadata) FileInfo {
	return FileInfo{
		name:  meta.Base(path),
		size:  md.Size,
		isDir: md.IsDir(),
		mtime: time.Unix(0, md.MTimeNS),
		ctime: time.Unix(0, md.CTimeNS),
	}
}

// Name returns the base name.
func (fi FileInfo) Name() string { return fi.name }

// Size returns the size in bytes.
func (fi FileInfo) Size() int64 { return fi.size }

// IsDir reports whether the entry is a directory.
func (fi FileInfo) IsDir() bool { return fi.isDir }

// ModTime returns the last modification time.
func (fi FileInfo) ModTime() time.Time { return fi.mtime }

// CreateTime returns the creation time.
func (fi FileInfo) CreateTime() time.Time { return fi.ctime }

// DirEntry is one directory listing element.
type DirEntry struct {
	// Name is the entry's base name.
	Name string
	// IsDir reports whether the entry is a directory.
	IsDir bool
	// Size is the size observed during the scan (eventually consistent).
	Size int64
}

// ReadDir lists a directory by gathering per-daemon scans, draining each
// daemon page by page (continuation token + page limit) so listings of
// any size stream in bounded frames. The listing is eventually
// consistent: concurrent creates and removes may or may not appear (paper
// §III-A); entries that do appear are each reported by exactly one
// daemon, so there are no duplicates.
func (c *Client) ReadDir(path string) ([]DirEntry, error) {
	p, err := meta.Clean(path)
	if err != nil {
		return nil, err
	}
	if p != meta.Root {
		md, err := c.statPath(p)
		if err != nil {
			return nil, err
		}
		if !md.IsDir() {
			return nil, proto.ErrNotDir
		}
	}
	perNode := make([][]DirEntry, len(c.cfg.Conns))
	err = c.fanOut(func(node int) error {
		ents, err := c.readDirNode(node, p)
		if err != nil {
			return err
		}
		perNode[node] = ents
		return nil
	})
	if err != nil {
		return nil, err
	}
	var all []DirEntry
	for _, ents := range perNode {
		all = append(all, ents...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all, nil
}

// readDirNode drains one daemon's directory scan page by page. Entry names are validated to be single path components: a hostile
// or buggy daemon must not be able to plant "..", "", or slash-bearing
// names that a consumer (stage-out's host-tree recreation, a recursive
// walk) would resolve outside the directory it asked about.
func (c *Client) readDirNode(node int, dir string) ([]DirEntry, error) {
	var ents []DirEntry
	after := ""
	for {
		e := rpc.NewEnc(len(dir) + len(after) + 16)
		e.Str(dir).Str(after).U32(c.readDirPage)
		d, err := c.call(node, proto.OpReadDir, e.Bytes(), rpc.BulkNone)
		if err != nil {
			return nil, lostErr("readdir", dir, node, err)
		}
		n := d.U32()
		// Each entry is at least 10 wire bytes (1-byte uvarint name length +
		// u8 kind + i64 size); a count that cannot fit the remaining frame
		// is a forged or corrupt page, not a short one.
		const minDirEntBytes = 1 + 1 + 8
		if int64(n)*minDirEntBytes > int64(d.Remaining()) {
			return nil, fmt.Errorf("gekkofs: daemon %d returned corrupt directory page (%d entries in %d bytes): %w",
				node, n, d.Remaining(), proto.ErrInval)
		}
		for i := uint32(0); i < n; i++ {
			ent := DirEntry{Name: d.Str(), IsDir: d.U8() == 1, Size: d.I64()}
			if ent.Name == "" || ent.Name == "." || ent.Name == ".." ||
				strings.ContainsRune(ent.Name, '/') {
				return nil, fmt.Errorf("gekkofs: daemon %d listed hostile entry name %q: %w",
					node, ent.Name, proto.ErrInval)
			}
			ents = append(ents, ent)
		}
		next := d.Str()
		if err := d.Done(); err != nil {
			return nil, err
		}
		if next == "" {
			return ents, nil
		}
		after = next
	}
}

// Remove unlinks a file or removes an empty directory. A regular file
// costs one metadata RPC — the daemon refuses directories via the
// RemoveFileOnly flag, so no leading stat is needed to tell them apart —
// plus chunk collection only when the file had data: a size at its
// metadata owner, or writes of this client's the owner has not heard of.
func (c *Client) Remove(path string) error {
	p, err := meta.Clean(path)
	if err != nil {
		return err
	}
	if p == meta.Root {
		return proto.ErrInval
	}
	unpublished := c.unpublished(p)
	_, size, err := c.removeMeta(p, true)
	if errors.Is(err, proto.ErrIsDir) {
		// Directory: verify it is empty, then remove without the flag.
		ents, err := c.ReadDir(p)
		if err != nil {
			return err
		}
		if len(ents) > 0 {
			return proto.ErrNotEmpty
		}
		// The record can have been swapped for a file with data between
		// the listing and this remove; honor the returned size so such a
		// file's chunks are still collected.
		_, size, err = c.removeMeta(p, false)
		if err != nil {
			return err
		}
	} else if err != nil {
		return err
	}
	c.forgetPath(p)
	if size > 0 || unpublished {
		return c.collectChunks([]string{p})
	}
	return nil
}

// unpublished reports whether a descriptor of p holds a size the owner
// has not been told: the size-update cache and rewrites below the
// acknowledged size defer it to the barrier, so the owner's size alone
// can miss data this client wrote, and a remove must then collect chunks
// anyway.
func (c *Client) unpublished(p string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v := c.views[p]; v != nil {
		for of := v.files; of != nil; of = of.sameNext {
			if of.cand.n.Load() > 0 {
				return true
			}
		}
	}
	return false
}

// forgetPath is what every successful remove of p owes this client's own
// state: the path no longer names the file, so no prefetched span may
// survive into a future file of the same name, and no open descriptor may
// go on believing the old file's size.
func (c *Client) forgetPath(p string) {
	c.dropFetches(p, 0, math.MaxInt64)
	c.lowerSize(p, 0)
}

// removeMeta removes p's record, reporting the mode and size it had.
// fileOnly asks the daemon to refuse directories with ErrIsDir.
func (c *Client) removeMeta(p string, fileOnly bool) (meta.Mode, int64, error) {
	r, err := c.metaOp(&proto.MetaOp{Kind: proto.MetaOpRemove, Path: p, FileOnly: fileOnly})
	return r.Mode, r.Size, err
}

// collectChunks removes the chunk data of paths on every daemon (chunks
// are spread everywhere): daemons are visited in parallel, the paths on
// each sequentially. Remove and RemoveMany share it.
func (c *Client) collectChunks(paths []string) error {
	return c.fanOut(func(node int) error {
		for _, p := range paths {
			e := rpc.NewEnc(len(p) + 4)
			e.Str(p)
			if _, err := c.call(node, proto.OpRemoveChunks, e.Bytes(), rpc.BulkNone); err != nil {
				return err
			}
		}
		return nil
	})
}

// Truncate sets a file's size, discarding data beyond it.
func (c *Client) Truncate(path string, size int64) error {
	p, err := meta.Clean(path)
	if err != nil {
		return err
	}
	if size < 0 {
		return proto.ErrInval
	}
	if err := c.updateSize(p, size, true); err != nil {
		return err
	}
	c.lowerSize(p, size)
	te := rpc.NewEnc(len(p) + 12)
	te.Str(p).I64(size)
	err = c.fanOut(func(node int) error {
		_, err := c.call(node, proto.OpTruncateChunks, te.Bytes(), rpc.BulkNone)
		return err
	})
	// Prefetched spans describe the pre-truncate file; drop them all
	// (cheap, and truncate is rare on hot read paths). In-flight fetches
	// are poisoned too — their data may predate the discard.
	c.dropFetches(p, 0, math.MaxInt64)
	return err
}

// notSupported wraps proto.ErrNotSupported in a *fs.PathError naming the
// operation and path, so staging reports and user-facing errors say
// `symlink /job/x: gekkofs: operation not supported` instead of a bare
// sentinel. errors.Is(err, proto.ErrNotSupported) still holds.
func notSupported(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: proto.ErrNotSupported}
}

// Rename is not supported: HPC application studies show parallel jobs
// rarely if ever rename (paper §III-A, citing [17]).
func (c *Client) Rename(oldpath, newpath string) error {
	return notSupported("rename", oldpath+" -> "+newpath)
}

// Link is not supported (paper §III-A).
func (c *Client) Link(oldpath, newpath string) error {
	return notSupported("link", oldpath+" -> "+newpath)
}

// Symlink is not supported (paper §III-A).
func (c *Client) Symlink(oldpath, newpath string) error {
	return notSupported("symlink", newpath)
}

// Chmod is not supported: GekkoFS delegates security to the node-local
// file system (paper §III-A).
func (c *Client) Chmod(path string, mode uint32) error {
	return notSupported("chmod", path)
}

// DaemonSnapshots fans out OpStats and returns every daemon's telemetry
// snapshot, indexed by node: the counters, gauges and latency histograms
// its /statz serves, mergeable across daemons (telemetry.Snapshot.Merge)
// — the remote equivalent of gekkofs.Cluster.DaemonSnapshots for TCP
// deployments (gkfs-shell's stats command).
func (c *Client) DaemonSnapshots() ([]telemetry.Snapshot, error) {
	out := make([]telemetry.Snapshot, len(c.cfg.Conns))
	err := c.fanOut(func(node int) error {
		d, err := c.call(node, proto.OpStats, nil, rpc.BulkNone)
		if err != nil {
			return err
		}
		s := proto.DecodeSnapshot(d)
		if err := d.Done(); err != nil {
			return fmt.Errorf("stats: daemon %d: %w", node, err)
		}
		out[node] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DaemonStats is DaemonSnapshots seen through the typed view: every
// daemon's operation counters as named fields, indexed by node.
func (c *Client) DaemonStats() ([]proto.DaemonStats, error) {
	snaps, err := c.DaemonSnapshots()
	if err != nil {
		return nil, err
	}
	out := make([]proto.DaemonStats, len(snaps))
	for i, s := range snaps {
		out[i] = proto.DaemonStatsOf(s)
	}
	return out, nil
}
