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
// RPCs. The paper stresses that any user can deploy the file system for
// the lifetime of a job in under 20 seconds on 512 nodes; a Cluster
// records its own bring-up time (DeployTime) for the equivalent
// measurement.
//
//	cluster, err := gekkofs.New(gekkofs.WithNodes(4))
//	...
//	fs, err := cluster.Mount()
//	f, err := fs.Create("/results/out.dat")
//	f.Write(data)
//	f.Close()
package gekkofs

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/daemon"
	"repro/internal/meta"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/staging"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/vfs"
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
	// ErrDegraded reports that a daemon an operation needs did not
	// answer: the one holding a chunk it reads or writes, or the
	// metadata owner of a path it resolves. Every chunk and every record
	// has one copy, so the operation fails; the error names the
	// operation, the path and the daemon. A job that loses a node
	// re-runs from its staged-out checkpoint.
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

// StageOptions tune a stage-in/stage-out transfer (see FS.StageIn).
type StageOptions = staging.Options

// StageReport is the structured outcome of one staging transfer:
// files/bytes moved and failed, with per-file errors aggregated
// (partial failure never aborts a transfer).
type StageReport = staging.Report

// config is what the options write. Every knob is documented once, on
// the With* option that sets it; New fills in the per-daemon and
// per-mount wiring (daemon ID, FS and ShmSocket; client Conns and
// ChunkSize).
type config struct {
	nodes     int
	dataDir   string
	transport string
	daemon    daemon.Config
	client    client.Config
	stageIn   *stageSpec
	stageOut  *stageSpec
}

// stageSpec names one directory-tree transfer between the host file
// system (the job's permanent PFS) and the deployment's namespace.
type stageSpec struct {
	hostDir, fsDir string
	opts           StageOptions
}

func newStageSpec(hostDir, fsDir string, opts *StageOptions) *stageSpec {
	spec := &stageSpec{hostDir: hostDir, fsDir: fsDir}
	if opts != nil {
		spec.opts = *opts
	}
	return spec
}

// Option configures a Cluster.
type Option func(*config)

// WithNodes sets the daemon count (default 1).
func WithNodes(n int) Option { return func(c *config) { c.nodes = n } }

// WithChunkSize overrides the 512 KiB default chunk size.
func WithChunkSize(bytes int64) Option { return func(c *config) { c.daemon.ChunkSize = bytes } }

// WithDataDir persists daemon state under dir on the host file system
// (one subdirectory per daemon, dir/node<N>) instead of in memory.
// Reopening the same dir with the same node count recovers the
// namespace and its data.
func WithDataDir(dir string) Option { return func(c *config) { c.dataDir = dir } }

// WithSizeUpdateCache enables the client-side size-update cache the paper
// introduces for shared-file workloads (§IV-B): size updates are buffered
// and flushed every ops writes (and on close/sync). Trade-off: another
// client's stat may briefly observe a smaller size.
func WithSizeUpdateCache(ops int) Option { return func(c *config) { c.client.SizeCacheOps = ops } }

// WithTransport selects the fabric wiring this deployment's clients to
// its daemons: "mem" (default) calls handlers directly in process, "shm"
// runs every daemon behind a shared-memory doorbell socket — the
// zero-copy segment path co-located clients use against standalone
// daemons, exposed here so library users and benchmarks can exercise it
// without separate processes. "shm" requires a unix platform.
func WithTransport(name string) Option { return func(c *config) { c.transport = name } }

// WithReadAhead enables the sequential read-ahead pipeline: once a
// File's reads are sequential (each starting where the previous ended),
// the client fetches the spans just past them into a bounded per-File
// window, so a single reader overlaps transfers from every daemon
// instead of blocking a full RPC fan-out per call. Random access never speculates, and nothing is kept once a read
// moves past it or the File closes. The relaxation is bounded to that
// window: another mount's write to bytes this File already fetched ahead
// of its position may stay unseen by the read that consumes them; every
// other read asks the daemons. This client's own writes, truncates and
// removes always drop the fetches they outdate.
func WithReadAhead() Option { return func(c *config) { c.client.ReadAhead = true } }

// WithStageIn copies the directory tree under hostDir into the namespace
// at fsDir as part of New, after the health check — the job's input data
// arrives with the deployment (the stage-in half of the temporary-FS
// lifecycle). Stage time is reported by Cluster.StageInTime, separately
// from DeployTime; per-file failures land in Cluster.StageInReport
// without failing deployment. opts may be nil for defaults.
func WithStageIn(hostDir, fsDir string, opts *StageOptions) Option {
	return func(c *config) { c.stageIn = newStageSpec(hostDir, fsDir, opts) }
}

// WithStageOutOnClose copies the namespace tree under fsDir back to
// hostDir during Close, before teardown — results reach the permanent
// file system exactly when the temporary one dissolves. Failures surface
// in Close's error and in Cluster.StageOutReport. opts may be nil for
// defaults.
func WithStageOutOnClose(fsDir, hostDir string, opts *StageOptions) Option {
	return func(c *config) { c.stageOut = newStageSpec(hostDir, fsDir, opts) }
}

// WithTelemetry enables client-side metrics: every FS mounted from the
// cluster records per-RPC round-trip latency histograms, an in-flight
// gauge, transport wait histograms and the size-view counters into a
// shared registry (Cluster.ClientTelemetry). sampleEvery > 0 also
// traces every sampleEvery-th RPC end to end: the call carries a trace
// ID to its daemon and both ends log a "gkfs.trace" event with span
// timings under the same hex ID (0 selects the default of one in
// 1024). Daemon-side histograms are always on and travel in
// DaemonSnapshots regardless of this option. The disabled-path cost on
// RPCs is a single branch.
func WithTelemetry(sampleEvery int) Option {
	return func(c *config) { c.client.Telemetry, c.client.TraceSample = telemetry.NewRegistry(), sampleEvery }
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
	cfg     config
	daemons []*daemon.Daemon
	mem     *transport.MemNetwork
	deploy  time.Duration

	// Shared-memory transport state (WithTransport("shm")): one doorbell
	// socket per daemon under a private directory.
	shmDir   string
	shmSocks []string
	shmLs    []net.Listener

	stageInTime  time.Duration
	stageOutTime time.Duration
	stageIn      *staging.Report
	stageOut     *staging.Report
	ready        bool // New completed; Close may stage out

	mu    sync.Mutex
	conns [][]rpc.Conn // handed to mounts, closed on Close; guarded by mu
}

// New deploys a cluster and waits until every daemon answers a ping.
func New(opts ...Option) (*Cluster, error) {
	cfg := config{nodes: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.nodes <= 0 {
		return nil, errors.New("gekkofs: cluster needs at least one node")
	}
	if cfg.transport != "" && cfg.transport != "mem" && cfg.transport != "shm" {
		return nil, fmt.Errorf("gekkofs: unknown transport %q (want mem or shm)", cfg.transport)
	}
	if cfg.daemon.ChunkSize == 0 {
		cfg.daemon.ChunkSize = meta.DefaultChunkSize
	}
	begin := time.Now()
	cl := &Cluster{cfg: cfg, mem: transport.NewMemNetwork()}
	if cfg.transport == "shm" {
		dir, err := os.MkdirTemp("", "gkfs-shm-")
		if err != nil {
			return nil, fmt.Errorf("gekkofs: shm socket dir: %w", err)
		}
		cl.shmDir = dir
		cl.shmSocks = make([]string, cfg.nodes)
		for i := range cl.shmSocks {
			cl.shmSocks[i] = filepath.Join(dir, fmt.Sprintf("d%d.sock", i))
		}
	}

	// Daemons start concurrently, as a parallel job launcher would start
	// them.
	daemons := make([]*daemon.Daemon, cfg.nodes)
	errs := make([]error, cfg.nodes)
	var wg sync.WaitGroup
	for i := range daemons {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			daemons[i], errs[i] = cl.startDaemon(i)
		}(i)
	}
	wg.Wait()
	cl.daemons = daemons
	if err := errors.Join(errs...); err != nil {
		cl.Close()
		return nil, err
	}
	for i, d := range daemons {
		cl.mem.Register(i, d.Server())
	}
	for i, sock := range cl.shmSocks {
		l, err := net.Listen("unix", sock)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("gekkofs: shm doorbell %d: %w", i, err)
		}
		cl.shmLs = append(cl.shmLs, l)
		go transport.ServeShm(l, daemons[i].Server(), 0)
	}

	// Health check: every daemon must answer a ping — as the daemon the
	// cluster takes it for (client.VerifyProtocol) — and the namespace
	// root must exist before clients mount: the registration step of a
	// real deployment.
	boot, err := cl.newClient()
	if err == nil {
		err = boot.VerifyProtocol()
	}
	if err == nil {
		err = boot.EnsureRoot()
	}
	if err != nil {
		cl.Close()
		return nil, fmt.Errorf("gekkofs: health check: %w", err)
	}
	cl.deploy = time.Since(begin)

	// Stage-in runs after bring-up and is timed separately: the paper's
	// deployability claim (< 20 s at 512 nodes) is about the file system
	// itself; how long the job's input data takes to arrive depends on
	// its volume, not on GekkoFS bring-up.
	if spec := cfg.stageIn; spec != nil {
		sb := time.Now()
		stager, err := cl.newClient()
		if err == nil {
			cl.stageIn, err = staging.StageIn(stager, spec.hostDir, spec.fsDir, spec.opts)
		}
		cl.stageInTime = time.Since(sb)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("gekkofs: stage-in: %w", err)
		}
	}
	cl.ready = true
	return cl, nil
}

// startDaemon starts daemon i on its own storage: a fresh in-memory FS,
// or dataDir/node<i> under WithDataDir.
func (cl *Cluster) startDaemon(i int) (*daemon.Daemon, error) {
	var fs vfs.FS = vfs.NewMem()
	if cl.cfg.dataDir != "" {
		var err error
		if fs, err = vfs.NewOS(filepath.Join(cl.cfg.dataDir, fmt.Sprintf("node%d", i))); err != nil {
			return nil, err
		}
	}
	dcfg := cl.cfg.daemon
	dcfg.ID, dcfg.FS, dcfg.ShmSocket = i, fs, ""
	if cl.shmSocks != nil {
		dcfg.ShmSocket = cl.shmSocks[i]
	}
	return daemon.New(dcfg)
}

// newClient dials every daemon and wires a client to them. The conns are
// the cluster's to close — on Close, or here when the mount fails part
// way.
func (cl *Cluster) newClient() (_ *client.Client, err error) {
	conns := make([]rpc.Conn, 0, cl.cfg.nodes)
	defer func() {
		if err != nil {
			for _, conn := range conns {
				conn.Close()
			}
		}
	}()
	for i := 0; i < cl.cfg.nodes; i++ {
		var conn rpc.Conn
		if cl.shmSocks != nil {
			conn, err = transport.DialShmPool(cl.shmSocks[i], 0, 1)
		} else {
			conn, err = cl.mem.Dial(i)
		}
		if err != nil {
			return nil, fmt.Errorf("gekkofs: dial daemon %d: %w", i, err)
		}
		conns = append(conns, conn)
	}
	ccfg := cl.cfg.client
	ccfg.Conns, ccfg.ChunkSize = conns, cl.ChunkSize()
	c, err := client.New(ccfg)
	if err != nil {
		return nil, err
	}
	cl.mu.Lock()
	cl.conns = append(cl.conns, conns)
	cl.mu.Unlock()
	return c, nil
}

// Mount returns a file system handle wired to every daemon.
func (cl *Cluster) Mount() (*FS, error) {
	c, err := cl.newClient()
	if err != nil {
		return nil, err
	}
	return &FS{c: c}, nil
}

// Close tears down the deployment. As a temporary file system, in-memory
// state is discarded (data under WithDataDir survives for reopening).
// A configured stage-out runs first, while the deployment still serves;
// a second Close does nothing.
func (cl *Cluster) Close() error {
	// Both structural and per-file stage-out failures surface in the
	// returned error — losing result data on teardown must be loud.
	var errs []error
	if spec := cl.cfg.stageOut; spec != nil && cl.ready {
		cl.ready = false // a second Close must not stage out again
		sb := time.Now()
		stager, err := cl.newClient()
		if err == nil {
			cl.stageOut, err = staging.StageOut(stager, spec.fsDir, spec.hostDir, spec.opts)
			err = errors.Join(err, cl.stageOut.Err())
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("gekkofs: stage-out: %w", err))
		}
		cl.stageOutTime = time.Since(sb)
	}
	cl.mu.Lock()
	for _, conns := range cl.conns {
		for _, conn := range conns {
			conn.Close()
		}
	}
	cl.conns = nil
	cl.mu.Unlock()
	for _, l := range cl.shmLs {
		l.Close()
	}
	cl.shmLs = nil
	for _, d := range cl.daemons {
		if d != nil {
			if err := d.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	cl.daemons = nil
	if cl.shmDir != "" {
		os.RemoveAll(cl.shmDir)
		cl.shmDir = ""
	}
	return errors.Join(errs...)
}

// Nodes returns the daemon count.
func (cl *Cluster) Nodes() int { return cl.cfg.nodes }

// ChunkSize returns the cluster chunk size in bytes.
func (cl *Cluster) ChunkSize() int64 { return cl.cfg.daemon.ChunkSize }

// DeployTime reports how long bring-up took (daemon start, health check
// and namespace bootstrap, excluding any stage-in) — the paper's
// headline deployability metric (< 20 s for 512 daemons).
func (cl *Cluster) DeployTime() time.Duration { return cl.deploy }

// DaemonStats returns per-daemon operation counters, indexed by node.
func (cl *Cluster) DaemonStats() []DaemonStats {
	out := make([]DaemonStats, len(cl.daemons))
	for i, d := range cl.daemons {
		out[i] = d.Stats()
	}
	return out
}

// DaemonSnapshots returns per-daemon telemetry snapshots, indexed by
// node: what each daemon's /statz serves, including queue-wait and per-op
// handle-time distributions with p50/p95/p99/p999 extraction.
func (cl *Cluster) DaemonSnapshots() []DaemonSnapshot {
	out := make([]DaemonSnapshot, len(cl.daemons))
	for i, d := range cl.daemons {
		out[i] = d.Telemetry().Snapshot()
	}
	return out
}

// ClientTelemetry returns the registry shared by this cluster's
// mounted file systems (nil unless WithTelemetry).
func (cl *Cluster) ClientTelemetry() *TelemetryRegistry { return cl.cfg.client.Telemetry }

// StageInTime reports how long WithStageIn's transfer took (zero when
// none was configured).
func (cl *Cluster) StageInTime() time.Duration { return cl.stageInTime }

// StageOutTime reports how long WithStageOutOnClose's transfer took.
func (cl *Cluster) StageOutTime() time.Duration { return cl.stageOutTime }

// StageInReport returns the deploy-time stage-in's report (nil when no
// stage-in was configured). Per-file failures land here, not in New's
// error — partial input is still a running deployment.
func (cl *Cluster) StageInReport() *StageReport { return cl.stageIn }

// StageOutReport returns the Close-time stage-out's report (nil until
// Close runs with WithStageOutOnClose configured).
func (cl *Cluster) StageOutReport() *StageReport { return cl.stageOut }
