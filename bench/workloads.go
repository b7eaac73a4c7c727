package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/client"
	"repro/internal/distributor"
)

const (
	blockBytes    = 4 << 10 // every block of every file starts with a stamp
	stampBytes    = 16
	transferBytes = 1 << 20 // stream_* transfer size
	smallBytes    = 8 << 10 // small_random_rw transfer size

	streamWriteFile = 128 << 20
	streamReadFile  = 256 << 20 // 8x the default 32 MiB chunk cache
	sharedFile      = 256 << 20
	// primedNames is how many files every deployment's namespace holds
	// before the window, as a job's stage-in leaves it. meta_churn churns
	// among them; creating them is most of what setup_s times, on every
	// workload.
	primedNames = 30000

	nsDir = "/namespace"
)

// workloadDef is one closed-loop workload: what its clients are, what
// files it needs, what one worker iteration does and what must hold
// after the window.
type workloadDef struct {
	name string
	why  string
	// client is the configuration of the two worker clients; everything
	// not set here is the client's default.
	client client.Config
	// fill writes the data files the workers need, after set-up, and
	// returns how many bytes it wrote; nil when the primed namespace is
	// all they need.
	fill func(e *env, c *client.Client) (int64, error)
	// newWorker builds worker id over its own client.
	newWorker func(b base) (worker, error)
	// check verifies the whole state the workers left behind.
	check func(e *env, c *client.Client) error
}

// worker is one closed-loop caller. step does one operation and
// verifies what it read; finish releases what the worker holds.
type worker interface {
	step() (payload int64, err error)
	finish() error
}

var workloads = []*workloadDef{
	{
		name:      "meta_churn",
		why:       "paper Fig. 2 (mdtest): per-op create/stat/remove RPCs in one shared directory; kvstore, meta, rpc dispatch and small-frame transport do all the work, chunkstore none",
		newWorker: func(b base) (worker, error) { return &churnWorker{base: b}, nil },
		check:     checkNamespace,
	},
	{
		name:      "stream_write",
		why:       "paper Fig. 3a (checkpoint dump): write-behind 1 MiB sequential writes over 128 MiB dump files; client pipeline, bulk-in transport and chunkstore writes dominate, kvstore is idle",
		client:    client.Config{AsyncWrites: true},
		fill:      fillStreamWrite,
		newWorker: newStreamWriter,
		check:     checkStreamWrite,
	},
	{
		name:      "stream_read",
		why:       "paper Fig. 3b (restart): read-ahead 1 MiB sequential reads of files 8x the chunk cache; the write path's layers used the other way, so a write gain that costs reads shows",
		client:    client.Config{ReadAhead: true},
		fill:      fillStreamRead,
		newWorker: newStreamReader,
	},
	{
		name:      "small_random_rw",
		why:       "paper's 8 KiB and shared-file cases: sync 50/50 random 8 KiB reads and rewrites of one shared file; per-RPC overhead and the per-write size merge dominate, bandwidth layers idle",
		fill:      fillShared,
		newWorker: newSmallRW,
		check:     checkShared,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is what one pass's set-up, fill, workers and checks share.
type env struct {
	cfg   *config
	ct    *content
	fails *failLog
	dist  *distributor.SimpleHash
}

func newEnv(cfg *config) *env {
	return &env{cfg: cfg, ct: newContent(cfg.seed), fails: &failLog{}, dist: distributor.NewSimpleHash(numDaemons)}
}

// scaled divides a default size by the -scale factor, keeping it a
// whole number of transfers.
func (e *env) scaled(n int64) int64 {
	n /= e.cfg.scale
	return max(n-n%transferBytes, transferBytes)
}

// opError is a failed, short or wrong-bytes operation.
type opError struct {
	op, path string
	err      error
}

func (e *opError) Error() string { return e.op + " " + e.path + ": " + e.err.Error() }

func opErr(op, path string, err error) error { return &opError{op, path, err} }

var errWrongBytes = errors.New("wrong bytes")

func errShort(n, want int) error { return fmt.Errorf("short transfer: %d of %d bytes", n, want) }

// failLog counts failures and keeps the first three, each naming the
// daemon that owns the path's metadata, the operation and the path.
type failLog struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (e *env) fail(who string, err error) {
	msg := who + ": " + err.Error()
	var oe *opError
	if errors.As(err, &oe) {
		msg = fmt.Sprintf("%s: daemon %d: %s", who, e.dist.MetaTarget(oe.path), oe.Error())
	}
	f := e.fails
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.first) < 3 {
		f.first = append(f.first, msg)
	}
}

func (f *failLog) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// content generates and verifies file bytes. Every 4 KiB block of every
// file holds [u64 stamp(file, block)][u64 block] followed by a pattern
// drawn from the seed, so a read is verified without keeping a copy and
// a block that lands in the wrong place, file or run is caught.
type content struct {
	pattern [blockBytes]byte
	key     uint64
}

func newContent(seed int64) *content {
	ct := &content{key: uint64(seed)*0x9E3779B97F4A7C15 + 1}
	rand.New(rand.NewSource(seed)).Read(ct.pattern[:])
	return ct
}

func (ct *content) stamp(file uint64, blk int64) uint64 {
	x := ct.key ^ (file * 0xD6E8FEB86659FD93) ^ (uint64(blk) * 0xBF58476D1CE4E5B9)
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	return x ^ x>>29
}

// newBuf returns an n-byte transfer buffer tiled with the pattern; n is
// a multiple of blockBytes. restamp makes it the content of a location.
func (ct *content) newBuf(n int) []byte {
	return bytes.Repeat(ct.pattern[:], n/blockBytes)
}

// restamp rewrites the block headers of buf for file offset off.
func (ct *content) restamp(buf []byte, file uint64, off int64) {
	for i := 0; i < len(buf); i += blockBytes {
		blk := (off + int64(i)) / blockBytes
		binary.LittleEndian.PutUint64(buf[i:], ct.stamp(file, blk))
		binary.LittleEndian.PutUint64(buf[i+8:], uint64(blk))
	}
}

// verify reports whether buf is the content of file at off: every block
// header always, and with full set every pattern byte too.
func (ct *content) verify(buf []byte, file uint64, off int64, full bool) bool {
	for i := 0; i < len(buf); i += blockBytes {
		blk := (off + int64(i)) / blockBytes
		if binary.LittleEndian.Uint64(buf[i:]) != ct.stamp(file, blk) ||
			binary.LittleEndian.Uint64(buf[i+8:]) != uint64(blk) {
			return false
		}
		if full && !bytes.Equal(buf[i+stampBytes:i+blockBytes], ct.pattern[stampBytes:]) {
			return false
		}
	}
	return true
}

// base is what every worker has.
type base struct {
	id  int
	e   *env
	c   *client.Client
	rec *recorder // nil on an untraced pass
	rng *rand.Rand
}

// span runs one client call, under a client.op span when tracing.
func (b *base) span(kind spanKind, call func() error) error {
	if b.rec == nil {
		return call()
	}
	t0 := b.rec.begin()
	err := call()
	b.rec.end(t0, kind, 0, 0)
	return err
}

func (b *base) createClose(path string) error {
	return b.span(kCreate, func() error {
		fd, err := b.c.Create(path)
		if err != nil {
			return err
		}
		return b.c.Close(fd)
	})
}

// statSize stats path under a span and checks it is a file of size want.
func (b *base) statSize(path string, want int64) error {
	var fi client.FileInfo
	err := b.span(kStat, func() (err error) {
		fi, err = b.c.Stat(path)
		return err
	})
	if err != nil {
		return opErr("stat", path, err)
	}
	if fi.IsDir() || fi.Size() != want {
		return opErr("stat", path, fmt.Errorf("dir=%v size=%d, want a file of %d bytes", fi.IsDir(), fi.Size(), want))
	}
	return nil
}

// readExact reads len(buf) bytes at off and verifies them.
func (b *base) readExact(fd int, path string, buf []byte, file uint64, off int64, full bool) error {
	var n int
	err := b.span(kRead, func() (err error) {
		n, err = b.c.ReadAt(fd, buf, off)
		return err
	})
	if err != nil && !(errors.Is(err, io.EOF) && n == len(buf)) {
		return opErr("read", path, err)
	}
	if n != len(buf) {
		return opErr("read", path, errShort(n, len(buf)))
	}
	if !b.e.ct.verify(buf, file, off, full) {
		return opErr("read", path, fmt.Errorf("%w at offset %d", errWrongBytes, off))
	}
	return nil
}

// writeFile writes size bytes of file's content to a new file at path
// in 1 MiB transfers and closes it.
func writeFile(ct *content, c *client.Client, path string, file uint64, size int64) error {
	fd, err := c.Create(path)
	if err != nil {
		return opErr("create", path, err)
	}
	buf := ct.newBuf(transferBytes)
	for off := int64(0); off < size; off += transferBytes {
		ct.restamp(buf, file, off)
		if n, err := c.Write(fd, buf); err != nil || n != len(buf) {
			c.Close(fd)
			return opErr("write", path, errors.Join(err, errShort(n, len(buf))))
		}
	}
	if err := c.Close(fd); err != nil {
		return opErr("close", path, err)
	}
	return nil
}

// readRange reads [from, to) of path in 1 MiB transfers and verifies
// every byte as the content of file.
func readRange(b base, path string, file uint64, from, to int64) error {
	fd, err := b.c.Open(path, client.O_RDONLY)
	if err != nil {
		return opErr("open", path, err)
	}
	defer b.c.Close(fd)
	buf := make([]byte, transferBytes)
	for off := from; off < to; off += transferBytes {
		if err := b.readExact(fd, path, buf, file, off, true); err != nil {
			return err
		}
	}
	return nil
}

// eachWorker runs fn for every worker index concurrently.
func eachWorker(fn func(id int) error) error {
	errs := make([]error, numWorkers)
	var wg sync.WaitGroup
	for id := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[id] = fn(id)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ---- meta_churn ----

// primeNamespace fills the shared directory of every deployment.
func primeNamespace(e *env, c *client.Client) error {
	if err := c.Mkdir(nsDir); err != nil {
		return opErr("mkdir", nsDir, err)
	}
	n := max(primedNames/int(e.cfg.scale), numWorkers)
	return eachWorker(func(id int) error {
		for i := id; i < n; i += numWorkers {
			path := fmt.Sprintf("%s/primed-%06d", nsDir, i)
			fd, err := c.Create(path)
			if err != nil {
				return opErr("create", path, err)
			}
			if err := c.Close(fd); err != nil {
				return opErr("close", path, err)
			}
		}
		return nil
	})
}

// churnWorker loops Create+Close, Stat, Remove on one fresh name at a
// time; each of the three is one operation.
type churnWorker struct {
	base
	phase int
	seq   int
	path  string
}

func (w *churnWorker) step() (int64, error) {
	switch w.phase {
	case 0:
		w.path = fmt.Sprintf("%s/w%d-%07d-%08x", nsDir, w.id, w.seq, w.rng.Uint32())
		w.seq++
		if err := w.createClose(w.path); err != nil {
			return 0, opErr("create", w.path, err)
		}
		w.phase = 1
	case 1:
		w.phase = 2
		return 0, w.statSize(w.path, 0)
	case 2:
		w.phase = 0
		if err := w.span(kRemove, func() error { return w.c.Remove(w.path) }); err != nil {
			return 0, opErr("remove", w.path, err)
		}
	}
	return 0, nil
}

func (w *churnWorker) finish() error {
	if w.phase == 0 {
		return nil
	}
	if err := w.c.Remove(w.path); err != nil {
		return opErr("remove", w.path, err)
	}
	return nil
}

// checkNamespace: the directory lists exactly the primed names, which
// after meta_churn means every churned name is gone again.
func checkNamespace(e *env, c *client.Client) error {
	ents, err := c.ReadDir(nsDir)
	if err != nil {
		return opErr("readdir", nsDir, err)
	}
	want := max(primedNames/int(e.cfg.scale), numWorkers)
	for _, ent := range ents {
		if !strings.HasPrefix(ent.Name, "primed-") || ent.IsDir || ent.Size != 0 {
			return opErr("readdir", nsDir, fmt.Errorf("unexpected entry %q dir=%v size=%d", ent.Name, ent.IsDir, ent.Size))
		}
	}
	if len(ents) != want {
		return opErr("readdir", nsDir, fmt.Errorf("%d entries, want the %d primed", len(ents), want))
	}
	return nil
}

// ---- stream_write ----

// Each worker alternates between two dump files, the way an application
// keeps its last two checkpoints: generation g overwrites the file that
// generation g-2 wrote. Fresh files are written once, by the fill,
// where client.fill_mib_per_s sees their cost; the window overwrites.
// (Creating and unlinking 512 chunk files per 128 MiB inside the window
// made the result depend on what the backing file system and the
// guest's page allocator had been doing for the previous half minute:
// on ext4, 1100 to 1800 operations a second for the same code.)
func streamWritePath(id, gen int) string { return fmt.Sprintf("/dump-w%d-%c", id, 'a'+gen%2) }

func fileID(id, gen int) uint64 { return uint64(id)<<32 | uint64(uint32(gen)) }

// fillStreamWrite writes generations 0 and 1 of every worker's dump.
func fillStreamWrite(e *env, c *client.Client) (int64, error) {
	size := e.scaled(streamWriteFile)
	return 2 * numWorkers * size, eachWorker(func(id int) error {
		for gen := 0; gen < 2; gen++ {
			if err := writeFile(e.ct, c, streamWritePath(id, gen), fileID(id, gen), size); err != nil {
				return err
			}
		}
		return nil
	})
}

// streamWriter writes one 1 MiB transfer per operation; the operation
// that completes a generation also fsyncs, closes and stats the file.
type streamWriter struct {
	base
	buf  []byte
	fd   int
	gen  int // the generation being written; the fill wrote 0 and 1
	off  int64
	size int64
	path string
}

func newStreamWriter(b base) (worker, error) {
	return &streamWriter{base: b, buf: b.e.ct.newBuf(transferBytes), fd: -1, gen: 1, size: b.e.scaled(streamWriteFile)}, nil
}

func (w *streamWriter) step() (int64, error) {
	if w.fd < 0 {
		w.gen++
		w.path, w.off = streamWritePath(w.id, w.gen), 0
		err := w.span(kOpen, func() (err error) {
			w.fd, err = w.c.Open(w.path, client.O_WRONLY)
			return err
		})
		if err != nil {
			w.fd = -1
			return 0, opErr("open", w.path, err)
		}
	}
	w.e.ct.restamp(w.buf, fileID(w.id, w.gen), w.off)
	var n int
	err := w.span(kWrite, func() (err error) {
		n, err = w.c.Write(w.fd, w.buf)
		return err
	})
	if err != nil || n != len(w.buf) {
		return 0, opErr("write", w.path, errors.Join(err, errShort(n, len(w.buf))))
	}
	if w.off += int64(n); w.off < w.size {
		return int64(n), nil
	}
	return int64(n), w.barrier()
}

// barrier ends a generation: Fsync+Close, then the size its owner reports.
func (w *streamWriter) barrier() error {
	fd := w.fd
	w.fd = -1
	err := w.span(kBarrier, func() error {
		return errors.Join(w.c.Fsync(fd), w.c.Close(fd))
	})
	if err != nil {
		return opErr("fsync", w.path, err)
	}
	return w.statSize(w.path, w.size)
}

// finish verifies every byte of both files: the generation the window's
// end interrupted up to where it got, the one it was overwriting beyond
// that, and the complete generation before it in the other file.
func (w *streamWriter) finish() error {
	written := w.size // the window ended exactly on a barrier
	if w.fd >= 0 {
		written = w.off
		if err := w.barrier(); err != nil {
			return err
		}
	}
	cur, other := streamWritePath(w.id, w.gen), streamWritePath(w.id, w.gen-1)
	return errors.Join(
		readRange(w.base, cur, fileID(w.id, w.gen), 0, written),
		readRange(w.base, cur, fileID(w.id, w.gen-2), written, w.size),
		readRange(w.base, other, fileID(w.id, w.gen-1), 0, w.size),
	)
}

// checkStreamWrite: the namespace holds the dump files and nothing else.
func checkStreamWrite(e *env, c *client.Client) error {
	ents, err := c.ReadDir("/")
	if err != nil {
		return opErr("readdir", "/", err)
	}
	dumps := 0
	for _, ent := range ents {
		switch {
		case ent.IsDir && "/"+ent.Name == nsDir:
		case strings.HasPrefix(ent.Name, "dump-w") && ent.Size == e.scaled(streamWriteFile):
			dumps++
		default:
			return opErr("readdir", "/", fmt.Errorf("unexpected entry %q of %d bytes", ent.Name, ent.Size))
		}
	}
	if dumps != 2*numWorkers {
		return opErr("readdir", "/", fmt.Errorf("%d dump files, want %d", dumps, 2*numWorkers))
	}
	return nil
}

// ---- stream_read ----

func streamReadPath(id int) string { return fmt.Sprintf("/restart-w%d", id) }

func fillStreamRead(e *env, c *client.Client) (int64, error) {
	size := e.scaled(streamReadFile)
	return numWorkers * size, eachWorker(func(id int) error {
		return writeFile(e.ct, c, streamReadPath(id), fileID(id, 0), size)
	})
}

// streamReader reads its own file in 1 MiB sequential transfers,
// starting at a seeded offset and wrapping at the end.
type streamReader struct {
	base
	buf  []byte
	fd   int
	off  int64
	size int64
	path string
}

func newStreamReader(b base) (worker, error) {
	w := &streamReader{base: b, buf: make([]byte, transferBytes), size: b.e.scaled(streamReadFile), path: streamReadPath(b.id)}
	if err := b.statSize(w.path, w.size); err != nil {
		return nil, err
	}
	fd, err := b.c.Open(w.path, client.O_RDONLY)
	if err != nil {
		return nil, opErr("open", w.path, err)
	}
	w.fd = fd
	w.off = b.rng.Int63n(w.size/transferBytes) * transferBytes
	return w, nil
}

func (w *streamReader) step() (int64, error) {
	off := w.off
	if w.off += transferBytes; w.off == w.size {
		w.off = 0
	}
	if err := w.readExact(w.fd, w.path, w.buf, fileID(w.id, 0), off, false); err != nil {
		return 0, err
	}
	return transferBytes, nil
}

func (w *streamReader) finish() error { return w.c.Close(w.fd) }

// ---- small_random_rw ----

const sharedPath = "/shared"

func fillShared(e *env, c *client.Client) (int64, error) {
	size := e.scaled(sharedFile)
	return size, writeFile(e.ct, c, sharedPath, 0, size)
}

// smallRW reads or rewrites one seeded random 8 KiB block of the shared
// file per operation. A write stores the block's canonical content
// again, so every read, by either worker, verifies exactly.
type smallRW struct {
	base
	rbuf, wbuf []byte
	fd         int
	blocks     int64
}

func newSmallRW(b base) (worker, error) {
	fd, err := b.c.Open(sharedPath, client.O_RDWR)
	if err != nil {
		return nil, opErr("open", sharedPath, err)
	}
	return &smallRW{base: b, rbuf: make([]byte, smallBytes), wbuf: b.e.ct.newBuf(smallBytes), fd: fd, blocks: b.e.scaled(sharedFile) / smallBytes}, nil
}

func (w *smallRW) step() (int64, error) {
	r := w.rng.Int63()
	off := (r >> 1) % w.blocks * smallBytes
	if r&1 == 0 {
		if err := w.readExact(w.fd, sharedPath, w.rbuf, 0, off, true); err != nil {
			return 0, err
		}
		return smallBytes, nil
	}
	w.e.ct.restamp(w.wbuf, 0, off)
	var n int
	err := w.span(kWrite, func() (err error) {
		n, err = w.c.WriteAt(w.fd, w.wbuf, off)
		return err
	})
	if err != nil || n != len(w.wbuf) {
		return 0, opErr("write", sharedPath, errors.Join(err, errShort(n, len(w.wbuf))))
	}
	return smallBytes, nil
}

func (w *smallRW) finish() error { return w.c.Close(w.fd) }

// checkShared: after all the rewrites the file still holds exactly its
// canonical content and size.
func checkShared(e *env, c *client.Client) error {
	b, size := base{e: e, c: c}, e.scaled(sharedFile)
	if err := b.statSize(sharedPath, size); err != nil {
		return err
	}
	return readRange(b, sharedPath, 0, 0, size)
}
