// Package core orchestrates GekkoFS deployments: it brings a set of
// daemons up (in-process for tests and single-machine use, or over TCP
// for multi-process runs), wires clients to them, and tears everything
// down. The paper stresses that any user can deploy the file system for
// the lifetime of a job in under 20 seconds on 512 nodes; Cluster records
// its own bring-up time so the startup experiment (T4 in DESIGN.md) can
// report the equivalent measurement.
package core

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
	"repro/internal/distributor"
	"repro/internal/meta"
	"repro/internal/rpc"
	"repro/internal/staging"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/vfs"
)

// StageSpec names one directory-tree transfer between the host file
// system (the job's permanent PFS) and the deployment's namespace. It is
// the configuration form of the staging subsystem's lifecycle hooks: the
// paper's temporary-FS deployment cycle is stage-in, compute, stage-out,
// tear down.
type StageSpec struct {
	// HostDir is the host/PFS-side directory.
	HostDir string
	// FSDir is the GekkoFS-side directory.
	FSDir string
	// Options tune the transfer engine.
	Options staging.Options
}

// Config describes an in-process cluster.
type Config struct {
	// Nodes is the daemon count (one per simulated compute node).
	Nodes int
	// DataDir, when non-empty, stores daemon state under
	// DataDir/node<N>/ on the real file system; otherwise everything is
	// in memory.
	DataDir string
	// Daemon holds the tunables of every daemon of this cluster —
	// declared once, on daemon.Config. The cluster fills in the wiring per
	// daemon: ID, FS (from DataDir) and ShmSocket (from Transport). A zero
	// ChunkSize selects meta.DefaultChunkSize, the cluster-wide value.
	Daemon daemon.Config
	// Client holds the tunables of every client mounted from this cluster
	// — declared once, on client.Config, and passed through as they are.
	// The cluster fills in the wiring: Conns and Dist per mount, ChunkSize
	// from Daemon.ChunkSize. A non-nil Client.Telemetry is the registry
	// all of this cluster's clients share (ClientTelemetry); daemon-side
	// metrics are always on.
	Client client.Config
	// Conns is the number of transport connections each client stripes
	// its per-daemon traffic over (see transport.Pool). Zero or one keeps
	// a single connection per daemon. In-process deployments gain little
	// from striping; the knob mirrors the TCP deployments' -conns flag so
	// both planes run the same code path.
	Conns int
	// Distributor names the placement pattern: "" or "simplehash" for
	// the paper's hashing, "guided-first-chunk" for the co-located
	// first-chunk variant.
	Distributor string
	// Transport names the fabric wiring clients to the in-process
	// daemons: "" or "mem" for the direct in-memory fabric, "shm" to run
	// every daemon behind a shared-memory doorbell socket — the same
	// zero-copy segment path co-located clients use against real daemons,
	// exercised here so library users and benchmarks can drive it without
	// separate processes. Requires a unix platform.
	Transport string
	// StageIn, when set, copies a host directory tree into the namespace
	// during NewCluster, after the health check — the job's input data
	// arrives with the deployment. Stage time is reported separately from
	// bring-up (StageInTime vs DeployTime). Per-file failures do not fail
	// deployment; inspect StageInReport.
	StageIn *StageSpec
	// StageOutOnClose, when set, copies a namespace tree back to the host
	// during Close, before teardown — results are flushed to the
	// permanent file system exactly when the temporary one dissolves.
	// Failures surface in Close's error and in StageOutReport.
	StageOutOnClose *StageSpec
}

// Cluster is a running in-process deployment.
type Cluster struct {
	cfg     Config
	daemons []*daemon.Daemon
	net     *transport.MemNetwork
	deploy  time.Duration

	// Shared-memory transport state (Config.Transport == "shm"): one
	// doorbell socket per daemon under a private directory.
	shmDir   string
	shmSocks []string
	shmLs    []net.Listener

	stageInTime  time.Duration
	stageOutTime time.Duration
	stageIn      *staging.Report
	stageOut     *staging.Report
	ready        bool // NewCluster completed; Close may stage out

	mu    sync.Mutex
	conns [][]rpc.Conn // conns handed to clients, closed on Close
}

// NewCluster deploys cfg.Nodes daemons and waits until every one answers
// a ping.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, errors.New("core: cluster needs at least one node")
	}
	if cfg.Transport != "" && cfg.Transport != "mem" && cfg.Transport != "shm" {
		return nil, fmt.Errorf("core: unknown transport %q (want mem or shm)", cfg.Transport)
	}
	if cfg.Daemon.ChunkSize == 0 {
		cfg.Daemon.ChunkSize = meta.DefaultChunkSize
	}
	begin := time.Now()
	c := &Cluster{cfg: cfg, net: transport.NewMemNetwork()}
	if cfg.Transport == "shm" {
		dir, err := os.MkdirTemp("", "gkfs-shm-")
		if err != nil {
			return nil, fmt.Errorf("core: shm socket dir: %w", err)
		}
		c.shmDir = dir
		c.shmSocks = make([]string, cfg.Nodes)
		for i := range c.shmSocks {
			c.shmSocks[i] = filepath.Join(dir, fmt.Sprintf("d%d.sock", i))
		}
	}

	// Daemons start concurrently, as a parallel job launcher would start
	// them.
	daemons := make([]*daemon.Daemon, cfg.Nodes)
	errs := make([]error, cfg.Nodes)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var fs vfs.FS
			if cfg.DataDir == "" {
				fs = vfs.NewMem()
			} else {
				var err error
				fs, err = vfs.NewOS(filepath.Join(cfg.DataDir, fmt.Sprintf("node%d", i)))
				if err != nil {
					errs[i] = err
					return
				}
			}
			dcfg := cfg.Daemon
			dcfg.ID, dcfg.FS, dcfg.ShmSocket = i, fs, ""
			if c.shmSocks != nil {
				dcfg.ShmSocket = c.shmSocks[i]
			}
			d, err := daemon.New(dcfg)
			if err != nil {
				errs[i] = err
				return
			}
			daemons[i] = d
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, d := range daemons {
			if d != nil {
				d.Close()
			}
		}
		return nil, err
	}
	c.daemons = daemons
	for i, d := range daemons {
		c.net.Register(i, d.Server())
	}
	if cfg.Transport == "shm" {
		for i, d := range daemons {
			l, err := net.Listen("unix", c.shmSocks[i])
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("core: shm doorbell %d: %w", i, err)
			}
			c.shmLs = append(c.shmLs, l)
			go transport.ServeShm(l, d.Server(), 0)
		}
	}

	// Health check: every daemon must answer a ping — as the daemon the
	// cluster takes it for (client.VerifyProtocol) — and the namespace
	// root must exist before clients mount: the registration step of a
	// real deployment.
	boot, err := c.newClient()
	if err == nil {
		err = boot.VerifyProtocol()
	}
	if err == nil {
		err = boot.EnsureRoot()
	}
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("core: health check: %w", err)
	}

	c.deploy = time.Since(begin)

	// Stage-in runs after bring-up and is timed separately: the paper's
	// deployability claim (< 20 s at 512 nodes) is about the file system
	// itself; how long the job's input data takes to arrive depends on
	// its volume, not on GekkoFS bring-up.
	if cfg.StageIn != nil {
		sb := time.Now()
		stager, err := c.newClient()
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("core: stage-in: %w", err)
		}
		rep, err := staging.StageIn(stager, cfg.StageIn.HostDir, cfg.StageIn.FSDir, cfg.StageIn.Options)
		c.stageIn = rep
		c.stageInTime = time.Since(sb)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("core: stage-in: %w", err)
		}
	}
	c.ready = true
	return c, nil
}

// DeployTime reports how long bring-up took (daemon start + health check
// + namespace bootstrap), excluding any configured stage-in.
func (c *Cluster) DeployTime() time.Duration { return c.deploy }

// StageInTime reports how long the configured stage-in took (zero when
// none was configured).
func (c *Cluster) StageInTime() time.Duration { return c.stageInTime }

// StageOutTime reports how long Close's configured stage-out took.
func (c *Cluster) StageOutTime() time.Duration { return c.stageOutTime }

// StageInReport returns the deploy-time stage-in's report (nil when no
// stage-in was configured). Per-file failures land here, not in
// NewCluster's error — partial input is still a running deployment.
func (c *Cluster) StageInReport() *staging.Report { return c.stageIn }

// StageOutReport returns the Close-time stage-out's report (nil until
// Close runs, or when no stage-out was configured).
func (c *Cluster) StageOutReport() *staging.Report { return c.stageOut }

// Nodes returns the daemon count.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// ChunkSize returns the cluster's chunk size.
func (c *Cluster) ChunkSize() int64 { return c.cfg.Daemon.ChunkSize }

func (c *Cluster) newClient() (*client.Client, error) {
	dist, err := distributor.New(c.cfg.Distributor, c.cfg.Nodes)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	conns := make([]rpc.Conn, c.cfg.Nodes)
	for i := range conns {
		dial := func() (rpc.Conn, error) { return c.net.Dial(i) }
		switch {
		case c.cfg.Transport == "shm":
			conns[i], err = transport.DialShmPool(c.shmSocks[i], 0, max(c.cfg.Conns, 1))
		case c.cfg.Conns > 1:
			conns[i] = transport.NewPool(c.cfg.Conns, dial)
		default:
			conns[i], err = dial()
		}
		if err != nil {
			return nil, fmt.Errorf("core: dial daemon %d: %w", i, err)
		}
	}
	ccfg := c.cfg.Client
	ccfg.Conns, ccfg.Dist, ccfg.ChunkSize = conns, dist, c.ChunkSize()
	cl, err := client.New(ccfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.conns = append(c.conns, conns)
	c.mu.Unlock()
	return cl, nil
}

// NewClient mounts the file system: it returns a client wired to every
// daemon (the preloaded library of the paper's architecture).
func (c *Cluster) NewClient() (*client.Client, error) { return c.newClient() }

// DaemonStats returns per-daemon operation counters.
func (c *Cluster) DaemonStats() []daemon.Stats {
	out := make([]daemon.Stats, len(c.daemons))
	for i, d := range c.daemons {
		out[i] = d.Stats()
	}
	return out
}

// DaemonSnapshots returns per-daemon telemetry snapshots: the counters,
// gauges and latency histograms (queue wait, per-op handle time) each
// daemon's /statz and OpStats reply serve, mergeable across daemons.
func (c *Cluster) DaemonSnapshots() []telemetry.Snapshot {
	out := make([]telemetry.Snapshot, len(c.daemons))
	for i, d := range c.daemons {
		out[i] = d.Telemetry().Snapshot()
	}
	return out
}

// ClientTelemetry returns the registry shared by this cluster's clients
// (Config.Client.Telemetry; nil when none was configured): per-RPC
// round-trip histograms, the in-flight gauge, pool/segment waits and
// replication counters.
func (c *Cluster) ClientTelemetry() *telemetry.Registry { return c.cfg.Client.Telemetry }

// Close tears the deployment down. In-memory state vanishes — GekkoFS is
// a temporary file system; persistence across jobs is exactly what it
// does not promise (DataDir deployments can be reopened, which tests use
// to verify crash recovery of the metadata store).
func (c *Cluster) Close() error {
	// Stage-out first, while the deployment still serves: the results
	// must reach the permanent file system before the temporary one
	// dissolves. Both structural and per-file failures surface in the
	// returned error — losing result data on teardown must be loud.
	var stageErrs []error
	if c.cfg.StageOutOnClose != nil && c.ready && c.daemons != nil {
		c.ready = false // a second Close must not stage out again
		sb := time.Now()
		stager, err := c.newClient()
		if err != nil {
			stageErrs = append(stageErrs, fmt.Errorf("core: stage-out: %w", err))
		} else {
			spec := c.cfg.StageOutOnClose
			rep, err := staging.StageOut(stager, spec.FSDir, spec.HostDir, spec.Options)
			c.stageOut = rep
			if err != nil {
				stageErrs = append(stageErrs, fmt.Errorf("core: stage-out: %w", err))
			}
			if err := rep.Err(); err != nil {
				stageErrs = append(stageErrs, fmt.Errorf("core: stage-out: %w", err))
			}
		}
		c.stageOutTime = time.Since(sb)
	}
	c.mu.Lock()
	for _, conns := range c.conns {
		for _, conn := range conns {
			conn.Close()
		}
	}
	c.conns = nil
	c.mu.Unlock()
	errs := stageErrs
	for _, l := range c.shmLs {
		l.Close()
	}
	c.shmLs = nil
	for _, d := range c.daemons {
		if d != nil {
			if err := d.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	c.daemons = nil
	if c.shmDir != "" {
		os.RemoveAll(c.shmDir)
		c.shmDir = ""
	}
	return errors.Join(errs...)
}
