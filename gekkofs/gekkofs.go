// Package gekkofs is the public API of this GekkoFS reproduction: a
// temporary, highly-scalable distributed file system for HPC applications
// (Vef et al., IEEE CLUSTER 2018). It pools node-local storage into a
// single global namespace with relaxed POSIX semantics — strong
// consistency for operations naming a specific file, eventual consistency
// for directory listings, no rename/link/permissions — and distributes
// all data and metadata by hashing, with file data split into 512 KiB
// chunks spread over every node.
//
// A Cluster stands up the daemons (in-process goroutines here; the
// paper's deployment runs one process per compute node — see cmd/gkfs-daemon
// for the TCP equivalent). Mount returns an FS, the analogue of
// preloading the interposition library: a client holding its own file
// map, hashing every path to its owning daemon, and issuing synchronous
// RPCs.
//
//	cluster, err := gekkofs.New(gekkofs.WithNodes(4))
//	...
//	fs, err := cluster.Mount()
//	f, err := fs.Create("/results/out.dat")
//	f.Write(data)
//	f.Close()
package gekkofs

import (
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/proto"
	"repro/internal/staging"
	"repro/internal/telemetry"
)

// Errors mirroring the relaxed-POSIX surface. Compare with errors.Is.
var (
	// ErrNotExist reports a missing path.
	ErrNotExist = proto.ErrNotExist
	// ErrExist reports a create of an existing path.
	ErrExist = proto.ErrExist
	// ErrIsDir reports a file operation on a directory.
	ErrIsDir = proto.ErrIsDir
	// ErrNotDir reports a directory operation on a file.
	ErrNotDir = proto.ErrNotDir
	// ErrNotEmpty reports removal of a non-empty directory.
	ErrNotEmpty = proto.ErrNotEmpty
	// ErrInval reports an invalid argument.
	ErrInval = proto.ErrInval
	// ErrNotSupported reports POSIX features GekkoFS deliberately lacks:
	// rename/move, links, permission management (paper §III-A).
	ErrNotSupported = proto.ErrNotSupported
	// ErrBadFD reports a closed or unknown descriptor.
	ErrBadFD = client.ErrBadFD
	// ErrDegraded reports that no live replica of a needed chunk
	// survives: every daemon in the chunk's replica chain is condemned
	// or failing. Only reachable with WithReplicas(r > 1); with a single
	// copy a dead daemon surfaces as a plain transport error instead.
	ErrDegraded = client.ErrDegraded
)

// Open flags, re-exported for OpenFile.
const (
	O_RDONLY = client.O_RDONLY
	O_WRONLY = client.O_WRONLY
	O_RDWR   = client.O_RDWR
	O_CREATE = client.O_CREATE
	O_EXCL   = client.O_EXCL
	O_TRUNC  = client.O_TRUNC
	O_APPEND = client.O_APPEND
)

// FileInfo describes a file or directory (see FS.Stat).
type FileInfo = client.FileInfo

// DirEntry is one directory-listing element (see FS.ReadDir).
type DirEntry = client.DirEntry

// DaemonStats exposes per-daemon operation counters.
type DaemonStats = daemon.Stats

// SnapshotInfo names one committed snapshot: its tag and pinned epoch.
type SnapshotInfo = proto.SnapshotEntry

// StageOptions tune a stage-in/stage-out transfer (see FS.StageIn).
type StageOptions = staging.Options

// StageReport is the structured outcome of one staging transfer:
// files/bytes moved, skipped and failed, with per-file errors aggregated
// (partial failure never aborts a transfer).
type StageReport = staging.Report

// Option configures a Cluster.
type Option func(*core.Config)

// WithNodes sets the daemon count (default 1).
func WithNodes(n int) Option { return func(c *core.Config) { c.Nodes = n } }

// WithChunkSize overrides the 512 KiB default chunk size.
func WithChunkSize(bytes int64) Option { return func(c *core.Config) { c.Daemon.ChunkSize = bytes } }

// WithHandlerPool bounds each daemon's concurrently executing RPC
// handlers (default 16).
func WithHandlerPool(n int) Option { return func(c *core.Config) { c.Daemon.PoolSize = n } }

// WithDataDir persists daemon state under dir on the host file system
// (one subdirectory per daemon) instead of in memory.
func WithDataDir(dir string) Option { return func(c *core.Config) { c.DataDir = dir } }

// WithSyncWAL makes metadata operations durable before they are
// acknowledged.
func WithSyncWAL() Option { return func(c *core.Config) { c.Daemon.SyncWAL = true } }

// WithSizeUpdateCache enables the client-side size-update cache the paper
// introduces for shared-file workloads (§IV-B): size updates are buffered
// and flushed every ops writes (and on close/sync). Trade-off: another
// client's stat may briefly observe a smaller size.
func WithSizeUpdateCache(ops int) Option { return func(c *core.Config) { c.Client.SizeCacheOps = ops } }

// WithDistributor selects the placement pattern: "simplehash" (paper
// default) or "guided-first-chunk" (ablation A2 in DESIGN.md).
func WithDistributor(name string) Option { return func(c *core.Config) { c.Distributor = name } }

// WithConns stripes each client's per-daemon traffic over n transport
// connections (default 1). On TCP deployments this is the knob that lets
// concurrent bulk transfers to one daemon move in parallel instead of
// serializing on a single socket.
func WithConns(n int) Option { return func(c *core.Config) { c.Conns = n } }

// WithReplicas sets the chunk replication factor R (default 1, i.e.
// off). Every chunk is written to R daemons — its hash-placed primary
// plus R−1 ring successors — and a chunk write succeeds while at least
// one replica acknowledges it. Reads prefer the primary but hedge to the
// next replica when the first RPC outlives the client's tracked p95
// latency for that daemon, and fail over on transport errors; a daemon
// that fails repeatedly is condemned (skipped by reads and read-ahead)
// and re-probed in the background. Metadata is not replicated: chunk
// replication makes file data survive a daemon loss, not the namespace
// entries hashed to the lost daemon. R must not exceed WithNodes' count.
func WithReplicas(r int) Option { return func(c *core.Config) { c.Client.Replicas = r } }

// WithTransport selects the fabric wiring this deployment's clients to
// its daemons: "mem" (default) calls handlers directly in process, "shm"
// runs every daemon behind a shared-memory doorbell socket — the
// zero-copy segment path co-located clients use against standalone
// daemons, exposed here so library users and benchmarks can exercise it
// without separate processes. "shm" requires a unix platform.
func WithTransport(name string) Option { return func(c *core.Config) { c.Transport = name } }

// WithAsyncWrites enables the write-behind data pipeline, the
// relaxed-semantics fast path for streaming writers: File.Write/WriteAt
// stage their chunk RPCs into a bounded per-descriptor in-flight window
// and return immediately, so a single writer overlaps transfers to every
// daemon instead of blocking a round trip per call. The contract moves to
// the barriers: File.Sync and File.Close drain the window and flush the
// file-size candidate, and a write failure latches on the descriptor and
// surfaces exactly once — on the next Write, Sync or Close. Reads through
// the same File drain its window first, so a process always reads its
// own completed writes. Stay synchronous (the default) when every Write's
// error must refer to that write, or when another process must observe
// data without waiting for this one's Sync.
func WithAsyncWrites() Option { return func(c *core.Config) { c.Client.AsyncWrites = true } }

// WithReadAhead enables the sequential read-ahead pipeline, the read
// mirror of WithAsyncWrites: once a File's reads are sequential (each
// starting where the previous ended), the client fetches the spans just
// past them into a bounded per-File window, so a single reader overlaps
// transfers from every daemon instead of blocking a full RPC fan-out per
// call. Random access never speculates, and nothing is kept once a read
// moves past it or the File closes. The relaxation is bounded to that
// window: another mount's write to bytes this File already fetched ahead
// of its position may stay unseen by the read that consumes them; every
// other read asks the daemons. This client's own writes, truncates and
// removes always drop the fetches they outdate.
func WithReadAhead() Option { return func(c *core.Config) { c.Client.ReadAhead = true } }

// WithStageIn copies the directory tree under hostDir into the namespace
// at fsDir as part of New — the job's input data arrives with the
// deployment (the stage-in half of the temporary-FS lifecycle). Stage
// time is reported by Cluster.StageInTime, separately from DeployTime;
// per-file failures land in Cluster.StageInReport without failing
// deployment. opts may be nil for defaults.
func WithStageIn(hostDir, fsDir string, opts *StageOptions) Option {
	return func(c *core.Config) {
		spec := &core.StageSpec{HostDir: hostDir, FSDir: fsDir}
		if opts != nil {
			spec.Options = *opts
		}
		c.StageIn = spec
	}
}

// WithStageOutOnClose copies the namespace tree under fsDir back to
// hostDir during Close, before teardown — results reach the permanent
// file system exactly when the temporary one dissolves. Failures surface
// in Close's error and in Cluster.StageOutReport. opts may be nil for
// defaults. With opts.Snapshot set to a committed tag, Close stages out
// the namespace exactly as pinned when FS.Snapshot(tag) committed,
// untorn by whatever the job wrote afterwards — the checkpoint/restart
// shape where epoch N+1 computes while epoch N drains to the permanent
// file system; an unknown tag fails the stage-out structurally.
func WithStageOutOnClose(fsDir, hostDir string, opts *StageOptions) Option {
	return func(c *core.Config) {
		spec := &core.StageSpec{HostDir: hostDir, FSDir: fsDir}
		if opts != nil {
			spec.Options = *opts
		}
		c.StageOutOnClose = spec
	}
}

// WithTelemetry enables client-side metrics: every FS mounted from the
// cluster records per-RPC round-trip latency histograms, an in-flight
// gauge, transport wait histograms and replication counters into a
// shared registry (Cluster.ClientTelemetry). sampleEvery > 0 also
// traces every sampleEvery-th RPC end to end: the call carries a trace
// ID to its daemon and both ends log a "gkfs.trace" event with span
// timings under the same hex ID (0 selects the default of one in
// 1024). Daemon-side histograms are always on and travel in
// DaemonSnapshots regardless of this option. The disabled-path cost on
// RPCs is a single branch.
func WithTelemetry(sampleEvery int) Option {
	return func(c *core.Config) { c.Client.Telemetry, c.Client.TraceSample = telemetry.NewRegistry(), sampleEvery }
}

// DaemonSnapshot is one daemon's telemetry snapshot — counters, gauges
// and latency histograms (queue wait, per-op handle time) by metric
// name, mergeable across daemons (see Cluster.DaemonSnapshots).
type DaemonSnapshot = telemetry.Snapshot

// TelemetryRegistry is the client-side metric registry handed out by
// Cluster.ClientTelemetry; snapshot it or serve it over HTTP with
// telemetry.Handler.
type TelemetryRegistry = telemetry.Registry

// Cluster is a running GekkoFS deployment.
type Cluster struct {
	c *core.Cluster
}

// New deploys a cluster and waits until every daemon is serving.
func New(opts ...Option) (*Cluster, error) {
	var cfg core.Config
	cfg.Nodes = 1
	for _, o := range opts {
		o(&cfg)
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{c: c}, nil
}

// Mount returns a file system handle wired to every daemon.
func (cl *Cluster) Mount() (*FS, error) {
	c, err := cl.c.NewClient()
	if err != nil {
		return nil, err
	}
	return &FS{c: c}, nil
}

// Close tears down the deployment. As a temporary file system, in-memory
// state is discarded (data under WithDataDir survives for reopening).
func (cl *Cluster) Close() error { return cl.c.Close() }

// Nodes returns the daemon count.
func (cl *Cluster) Nodes() int { return cl.c.Nodes() }

// ChunkSize returns the cluster chunk size in bytes.
func (cl *Cluster) ChunkSize() int64 { return cl.c.ChunkSize() }

// DeployTime reports how long bring-up took — the paper's headline
// deployability metric (< 20 s for 512 daemons).
func (cl *Cluster) DeployTime() time.Duration { return cl.c.DeployTime() }

// DaemonStats returns per-daemon operation counters, indexed by node.
func (cl *Cluster) DaemonStats() []DaemonStats { return cl.c.DaemonStats() }

// DaemonSnapshots returns per-daemon telemetry snapshots, indexed by
// node: what each daemon's /statz serves, including queue-wait and per-op
// handle-time distributions with p50/p95/p99/p999 extraction.
func (cl *Cluster) DaemonSnapshots() []DaemonSnapshot { return cl.c.DaemonSnapshots() }

// ClientTelemetry returns the registry shared by this cluster's
// mounted file systems (nil unless WithTelemetry).
func (cl *Cluster) ClientTelemetry() *TelemetryRegistry { return cl.c.ClientTelemetry() }

// StageInTime reports how long WithStageIn's transfer took (zero when
// none was configured).
func (cl *Cluster) StageInTime() time.Duration { return cl.c.StageInTime() }

// StageOutTime reports how long WithStageOutOnClose's transfer took.
func (cl *Cluster) StageOutTime() time.Duration { return cl.c.StageOutTime() }

// StageInReport returns the deploy-time stage-in's report (nil when no
// stage-in was configured).
func (cl *Cluster) StageInReport() *StageReport { return cl.c.StageInReport() }

// StageOutReport returns the Close-time stage-out's report (nil until
// Close runs with WithStageOutOnClose configured).
func (cl *Cluster) StageOutReport() *StageReport { return cl.c.StageOutReport() }
