package simcluster

import (
	"time"

	"repro/internal/sim"
)

// MDOp names a metadata operation of the mdtest workload.
type MDOp int

// Metadata operations.
const (
	// MDOpCreate creates zero-byte files in a single directory.
	MDOpCreate MDOp = iota
	// MDOpStat stats existing files.
	MDOpStat
	// MDOpRemove unlinks zero-byte files.
	MDOpRemove
)

// String names the op for reports.
func (op MDOp) String() string {
	switch op {
	case MDOpCreate:
		return "create"
	case MDOpStat:
		return "stat"
	case MDOpRemove:
		return "remove"
	default:
		return "md?"
	}
}

// Result is one simulated measurement.
type Result struct {
	// OpsPerSec is the aggregate operation rate during the measurement
	// window.
	OpsPerSec float64
	// MiBPerSec is the aggregate data rate (I/O phases only).
	MiBPerSec float64
	// MeanLatency is the mean per-operation completion latency.
	MeanLatency time.Duration
	// SSDBusy is the mean SSD busy fraction across nodes (I/O phases).
	SSDBusy float64
}

// node bundles one simulated machine's contended resources.
type node struct {
	nicIn, nicOut *sim.Server
	progress      *sim.Server
	ssd           *sim.Server
}

// cluster is a running model.
type cluster struct {
	eng   *sim.Engine
	p     Params
	nodes []*node
	rng   *sim.RNG
}

func newCluster(p Params, nodes int, seed uint64) *cluster {
	eng := sim.NewEngine()
	c := &cluster{eng: eng, p: p, rng: sim.NewRNG(seed)}
	for i := 0; i < nodes; i++ {
		c.nodes = append(c.nodes, &node{
			nicIn:    sim.NewServer(eng, 1),
			nicOut:   sim.NewServer(eng, 1),
			progress: sim.NewServer(eng, 1),
			ssd:      sim.NewServer(eng, 1),
		})
	}
	return c
}

// latency returns the one-way delay between two nodes; local IPC is
// cheaper (the paper's Margo IPC path).
func (c *cluster) latency(from, to int) sim.Time {
	l := sim.Dur(c.p.NetLatency)
	if from == to {
		return l / 2
	}
	return l
}

// txTime is the NIC serialization time of a payload.
func (c *cluster) txTime(bytes int64) sim.Time {
	if bytes <= 0 {
		return 0
	}
	return sim.Time(float64(bytes) / c.p.NetBandwidth * 1e9)
}

// jit applies the configured service-time jitter.
func (c *cluster) jit(d time.Duration) sim.Time {
	return c.rng.Jitter(sim.Dur(d), c.p.JitterFrac)
}

// metadataRPC models one small RPC from a client on node `from` to the
// daemon on node `to`: request latency, serialized progress+KV work at
// the daemon, response latency. Small messages don't meaningfully load
// the NICs, so only the latency and the daemon critical path are charged.
func (c *cluster) metadataRPC(from, to int, svc time.Duration, done func()) {
	c.eng.After(c.latency(from, to), func() {
		c.nodes[to].progress.Process(c.jit(svc), func() {
			c.eng.After(c.latency(to, from), done)
		})
	})
}

// mdSvc returns the daemon-side cost of op.
func (c *cluster) mdSvc(op MDOp) time.Duration {
	switch op {
	case MDOpCreate:
		return c.p.MDCreate
	case MDOpStat:
		return c.p.MDStat
	default:
		return c.p.MDRemove
	}
}

// RunMetadata simulates the mdtest phase `op` on the given node count:
// every process is a closed loop issuing one operation at a time against
// a uniformly hashed daemon (the flat namespace spreads a single
// directory over all daemons — the paper's central metadata property).
// Throughput is measured over the steady-state window after warmup.
func RunMetadata(p Params, nodes int, op MDOp, warmup, window time.Duration, seed uint64) Result {
	c := newCluster(p, nodes, seed)
	start := sim.Dur(warmup)
	end := start + sim.Dur(window)

	var completed uint64
	var latSum sim.Time
	var latN uint64

	procs := nodes * p.ProcsPerNode
	for pr := 0; pr < procs; pr++ {
		home := pr / p.ProcsPerNode
		var loop func()
		loop = func() {
			issued := c.eng.Now()
			target := c.rng.Intn(len(c.nodes))
			c.eng.After(c.jit(p.ClientOverhead), func() {
				c.metadataRPC(home, target, c.mdSvc(op), func() {
					if c.eng.Now() > start && c.eng.Now() <= end {
						completed++
						latSum += c.eng.Now() - issued
						latN++
					}
					loop()
				})
			})
		}
		loop()
	}
	c.eng.RunUntil(end)

	res := Result{
		OpsPerSec: float64(completed) / window.Seconds(),
	}
	if latN > 0 {
		res.MeanLatency = time.Duration(latSum / sim.Time(latN))
	}
	return res
}

// IOConfig describes one IOR-like phase.
type IOConfig struct {
	// Nodes is the node count; 16 processes run per node.
	Nodes int
	// Write selects write (true) or read (false).
	Write bool
	// TransferSize is the per-operation I/O size.
	TransferSize int64
	// Random selects random offsets within each process's region;
	// sequential otherwise.
	Random bool
	// Shared makes all processes write one shared file, so every size
	// update targets the single daemon holding its metadata — the
	// bottleneck of paper §IV-B. File-per-process otherwise.
	Shared bool
	// SizeCacheOps batches size updates client-side, flushing every N
	// transfers (0 disables — the paper's default protocol).
	SizeCacheOps int
	// LocalWrites places every chunk on the writer's own node (the
	// BurstFS-style "write local" placement the paper contrasts with its
	// hashing in §II, ablation A2); reads then fetch from the writers'
	// nodes, modeled as uniformly remote. False selects the paper's
	// hashing, the only placement the file system itself implements.
	LocalWrites bool
	// ProducerFrac limits the fraction of nodes whose processes
	// participate in the phase (1.0 or 0 = all). A skewed producer set
	// is where placement policies diverge: hashing still engages every
	// node's SSD, write-local only the producers'.
	ProducerFrac float64
	// Warmup and Window bound the measurement.
	Warmup, Window time.Duration
	// Seed fixes the RNG.
	Seed uint64
}

// RunIO simulates one IOR phase and reports aggregate bandwidth, op rate
// and latency.
func RunIO(p Params, cfg IOConfig) Result {
	c := newCluster(p, cfg.Nodes, cfg.Seed+0x10)
	start := sim.Dur(cfg.Warmup)
	end := start + sim.Dur(cfg.Window)

	chunk := p.ChunkSize
	// Spans per transfer: the client splits on chunk boundaries. Aligned
	// sequential I/O touches ceil(T/chunk) chunks; model transfers as
	// aligned (IOR's default).
	nChunks := (cfg.TransferSize + chunk - 1) / chunk
	if nChunks < 1 {
		nChunks = 1
	}
	lastLen := cfg.TransferSize - (nChunks-1)*chunk

	// Random accesses below the chunk size hit chunk files at random
	// offsets; at or above it they address whole chunk files and behave
	// sequentially (paper §IV-B).
	randomDevice := cfg.Random && cfg.TransferSize < chunk

	var completed uint64
	var bytesDone int64
	var latSum sim.Time
	var latN uint64

	// Bandwidth is accounted at chunk-RPC completion so that transfers
	// longer than the window (64 MiB) still measure steady-state rate.
	countChunk := func(l int64) {
		if c.eng.Now() > start && c.eng.Now() <= end {
			bytesDone += l
		}
	}

	// The shared file's metadata lives on one daemon.
	sharedMetaNode := c.rng.Intn(cfg.Nodes)

	// Transfers smaller than a chunk hit the same chunk — and therefore
	// the same daemon — for chunk/transfer consecutive sequential ops;
	// random offsets re-draw the chunk (and daemon) every op. This is the
	// real client's locality pattern (internal/client hashes path+chunk).
	stickyOps := int(chunk / cfg.TransferSize)
	if stickyOps < 1 || cfg.TransferSize >= chunk {
		stickyOps = 1
	}

	producerNodes := cfg.Nodes
	if cfg.ProducerFrac > 0 && cfg.ProducerFrac < 1 {
		producerNodes = int(float64(cfg.Nodes)*cfg.ProducerFrac + 0.5)
		if producerNodes < 1 {
			producerNodes = 1
		}
	}

	procs := producerNodes * p.ProcsPerNode
	for pr := 0; pr < procs; pr++ {
		home := pr / p.ProcsPerNode
		// Each file-per-process file has a fixed metadata daemon.
		fppMetaNode := c.rng.Intn(cfg.Nodes)
		pending := 0 // transfers since last size-update flush
		curTarget := c.rng.Intn(cfg.Nodes)
		opsOnChunk := 0

		var loop func()
		finish := func(issued sim.Time) {
			if c.eng.Now() > start && c.eng.Now() <= end {
				completed++
				latSum += c.eng.Now() - issued
				latN++
			}
			loop()
		}
		loop = func() {
			issued := c.eng.Now()
			c.eng.After(c.jit(p.ClientOverhead), func() {
				// One wait slot per chunk RPC plus one for the size
				// update (writes without an elided update).
				sizeUpdate := false
				if cfg.Write {
					if cfg.SizeCacheOps > 0 {
						pending++
						if pending >= cfg.SizeCacheOps {
							pending = 0
							sizeUpdate = true
						}
					} else {
						sizeUpdate = true
					}
				}
				slots := int(nChunks)
				if sizeUpdate {
					slots++
				}
				wg := sim.NewWaitGroup(slots, func() { finish(issued) })
				for ci := int64(0); ci < nChunks; ci++ {
					l := chunk
					if ci == nChunks-1 {
						l = lastLen
					}
					var target int
					switch {
					case cfg.LocalWrites && cfg.Write:
						target = home
					case cfg.TransferSize >= chunk || cfg.Random || cfg.LocalWrites:
						target = c.rng.Intn(cfg.Nodes)
					default:
						if opsOnChunk >= stickyOps {
							curTarget = c.rng.Intn(cfg.Nodes)
							opsOnChunk = 0
						}
						target = curTarget
						opsOnChunk++
					}
					done := func() {
						countChunk(l)
						wg.Done()
					}
					if cfg.Write {
						c.writeChunk(home, target, l, randomDevice, done)
					} else {
						c.readChunk(home, target, l, randomDevice, done)
					}
				}
				if sizeUpdate {
					metaNode := fppMetaNode
					if cfg.Shared {
						metaNode = sharedMetaNode
					}
					c.metadataRPC(home, metaNode, p.MDSizeUpdate, wg.Done)
				}
			})
		}
		loop()
	}
	c.eng.RunUntil(end)

	res := Result{
		OpsPerSec: float64(completed) / cfg.Window.Seconds(),
		MiBPerSec: float64(bytesDone) / (1 << 20) / cfg.Window.Seconds(),
	}
	if latN > 0 {
		res.MeanLatency = time.Duration(latSum / sim.Time(latN))
	}
	var busy float64
	for _, n := range c.nodes {
		busy += n.ssd.BusyFraction()
	}
	res.SSDBusy = busy / float64(len(c.nodes))
	return res
}

// writeChunk: the payload serializes out of the client NIC, crosses the
// fabric, serializes into the daemon NIC, passes the daemon's RPC
// critical path (which pulls the bulk region — the paper's RDMA read),
// is persisted by the SSD, and a small ack returns.
func (c *cluster) writeChunk(from, to int, size int64, random bool, done func()) {
	nf, nt := c.nodes[from], c.nodes[to]
	nf.nicOut.Process(c.txTime(size), func() {
		c.eng.After(c.latency(from, to), func() {
			nt.nicIn.Process(c.txTime(size), func() {
				nt.progress.Process(c.jit(c.p.DataRPC), func() {
					nt.ssd.Process(c.rng.Jitter(sim.Dur(c.p.SSD.WriteTime(size, random)), c.p.JitterFrac), func() {
						c.eng.After(c.latency(to, from), done)
					})
				})
			})
		})
	})
}

// readChunk: a small request travels to the daemon, the SSD fetches the
// chunk, and the payload serializes back through both NICs (the daemon's
// RDMA write into the client's exposed buffer).
func (c *cluster) readChunk(from, to int, size int64, random bool, done func()) {
	nf, nt := c.nodes[from], c.nodes[to]
	c.eng.After(c.latency(from, to), func() {
		nt.progress.Process(c.jit(c.p.DataRPC), func() {
			nt.ssd.Process(c.rng.Jitter(sim.Dur(c.p.SSD.ReadTime(size, random)), c.p.JitterFrac), func() {
				nt.nicOut.Process(c.txTime(size), func() {
					c.eng.After(c.latency(to, from), func() {
						nf.nicIn.Process(c.txTime(size), done)
					})
				})
			})
		})
	})
}

// AggregateSSDPeak returns the reference series of Fig. 3: the summed
// sequential device bandwidth of all node-local SSDs, in MiB/s.
func AggregateSSDPeak(p Params, nodes int, write bool) float64 {
	var per float64
	if write {
		per = p.SSD.SeqWriteBandwidth()
	} else {
		per = p.SSD.SeqReadBandwidth()
	}
	return per * float64(nodes) / (1 << 20)
}
