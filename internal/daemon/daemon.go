// Package daemon implements the GekkoFS server process (paper §III-B,
// Fig. 1): a key-value store holding the metadata of the paths hashed to
// this node, an I/O persistence layer storing one file per chunk on the
// node-local file system, and an RPC layer accepting local and remote
// client operations. Daemons never talk to each other; all coordination
// happens through clients, which is what lets the file system scale
// without central structures.
package daemon

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chunkstore"
	"repro/internal/kvstore"
	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// Config configures one daemon.
type Config struct {
	// ID is the daemon's index within the cluster's host list.
	ID int
	// FS is the node-local storage (the paper's SSD scratch dir). The KV
	// store lives under "meta/", chunks under "chunks/".
	FS vfs.FS
	// ChunkSize is the file system chunk size; must match the clients'.
	// Zero selects meta.DefaultChunkSize (512 KiB, the paper's value).
	ChunkSize int64
	// PoolSize bounds concurrently executing RPC handlers (Margo
	// execution streams). Zero selects the rpc default.
	PoolSize int
	// SyncWAL makes metadata operations durable before acknowledgement.
	SyncWAL bool
	// ShmSocket, when non-empty, is the path of the Unix-domain doorbell
	// socket this daemon serves the shared-memory transport on. The ping
	// reply advertises it so co-located clients can switch to the
	// zero-copy segment path at mount time. The daemon does not listen on
	// it itself — the process hosting the daemon does (transport.ServeShm).
	ShmSocket string
}

// Stats are the daemon's operation counters. The type is the typed view
// clients rebuild from an OpStats reply (proto.DaemonStats), so
// in-process tests and remote tooling read the same shape.
type Stats = proto.DaemonStats

// Daemon is one GekkoFS server.
type Daemon struct {
	// live holds the operation counters the handlers own, each bumped in
	// place with one atomic.AddUint64; the fields other tiers own —
	// wire, COW — stay zero here and are copied in by Stats. First in the
	// struct so its words are 64-bit aligned on every platform.
	live Stats

	cfg    Config
	srv    *rpc.Server
	db     *kvstore.DB
	chunks *chunkstore.Store

	// snaps is the durable snapshot table's in-memory mirror (snapshot.go).
	snaps snapState

	reg       *telemetry.Registry
	queueHist *telemetry.Histogram
	opHists   [proto.OpSnapshotDrop + 1]*telemetry.Histogram

	startup time.Duration
}

// sub scopes a vfs.FS to a subdirectory by prefixing names.
type sub struct {
	fs     vfs.FS
	prefix string
}

func (s sub) Create(n string) (vfs.File, error)       { return s.fs.Create(s.prefix + n) }
func (s sub) Open(n string) (vfs.File, error)         { return s.fs.Open(s.prefix + n) }
func (s sub) OpenOrCreate(n string) (vfs.File, error) { return s.fs.OpenOrCreate(s.prefix + n) }
func (s sub) Remove(n string) error                   { return s.fs.Remove(s.prefix + n) }
func (s sub) Rename(o, n string) error                { return s.fs.Rename(s.prefix+o, s.prefix+n) }
func (s sub) List(d string) ([]string, error)         { return s.fs.List(s.prefix + d) }
func (s sub) MkdirAll(d string) error                 { return s.fs.MkdirAll(s.prefix + d) }
func (s sub) Exists(n string) bool                    { return s.fs.Exists(s.prefix + n) }

// New starts a daemon: opens (or recovers) the metadata store, attaches
// the chunk store, and registers every RPC handler. The measured startup
// time is retained because the paper quantifies deployment speed
// (< 20 s for 512 daemons).
func New(cfg Config) (*Daemon, error) {
	begin := time.Now()
	if cfg.FS == nil {
		return nil, errors.New("daemon: Config.FS is required")
	}
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = meta.DefaultChunkSize
	}
	if cfg.ChunkSize < 0 {
		return nil, fmt.Errorf("daemon: invalid chunk size %d", cfg.ChunkSize)
	}
	db, err := kvstore.Open(kvstore.Options{
		FS:      sub{fs: cfg.FS, prefix: "meta/"},
		Merger:  sizeMerger,
		SyncWAL: cfg.SyncWAL,
	})
	if err != nil {
		return nil, fmt.Errorf("daemon: metadata store: %w", err)
	}
	d := &Daemon{
		cfg:    cfg,
		srv:    rpc.NewServer(cfg.PoolSize),
		db:     db,
		chunks: chunkstore.New(cfg.FS),
	}
	if err := d.loadSnapshots(); err != nil {
		db.Close()
		return nil, fmt.Errorf("daemon: snapshot state: %w", err)
	}
	d.register()
	d.initTelemetry()
	d.startup = time.Since(begin)
	return d, nil
}

// Server returns the RPC dispatcher for transports to serve.
func (d *Daemon) Server() *rpc.Server { return d.srv }

// StartupTime reports how long New took (KV recovery dominates).
func (d *Daemon) StartupTime() time.Duration { return d.startup }

// Stats snapshots the operation counters: the wire-tier counters the
// transports maintain on the RPC server and the chunk store's COW totals,
// plus everything the handlers counted.
func (d *Daemon) Stats() Stats {
	w := d.srv.Wire()
	copies, bytes := d.chunks.CowStats()
	st := Stats{
		FramesIn:       w.FramesIn.Load(),
		FramesOut:      w.FramesOut.Load(),
		WireBytesIn:    w.BytesIn.Load(),
		WireBytesOut:   w.BytesOut.Load(),
		VectoredWrites: w.VectoredWrites.Load(),
		ShmCalls:       w.ShmCalls.Load(),
		CowCopies:      copies,
		CowBytes:       bytes,
	}
	telemetry.AddFields(&st, &d.live)
	return st
}

// Close stops the RPC server, closes the metadata store and releases the
// chunk files the chunk store keeps open.
func (d *Daemon) Close() error {
	d.srv.Close()
	return errors.Join(d.db.Close(), d.chunks.Close())
}

// sizeMerger folds size-update operands ([i64 size][i64 mtime][u64 epoch])
// into a versioned metadata record, keeping the maximum size — the
// KV-store merge GekkoFS performs for lock-free size growth. The
// per-operand step is meta.VersionedMeta.Grow, the same rule the
// metadata transaction ran when it queued the operand; it runs again here
// because the record may have changed since (grows take no key lock). An
// operand landing on a concurrently removed path recreates a bare
// regular-file record; GekkoFS accepts this relaxed outcome rather than
// serializing writers against removers (paper §III-A); a directory record
// is never grown. The merger must stay pure — the store folds operands at
// insert and WAL recovery replays them — so the epoch travels in the
// operand (stamped by the transaction) and version GC happens only in the
// transaction.
func sizeMerger(_ []byte, existing []byte, operands [][]byte) []byte {
	var vm meta.VersionedMeta
	if existing != nil {
		if v, err := meta.DecodeVersionedMeta(existing); err == nil {
			vm = v
		}
	}
	for _, op := range operands {
		d := rpc.NewDec(op)
		size, mtime, epoch := d.I64(), d.I64(), d.U64()
		if d.Done() != nil {
			continue
		}
		vm.Grow(epoch, size, mtime)
	}
	return vm.Encode()
}
