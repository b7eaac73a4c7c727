// Command gkfs-daemon runs one GekkoFS daemon serving the client↔daemon
// protocol over TCP — the per-node server process of a real deployment.
// Point it at the node-local scratch directory (the paper's SSD mount):
//
//	gkfs-daemon -listen :7777 -data /local/ssd/gkfs -id 0
//
// Clients (cmd/gkfs-shell, cmd/gkfs-bench, cmd/gkfs-fsck) take the full
// daemon host list and resolve responsibilities by hashing, so every
// daemon must be started with a distinct -id matching its position in
// that list, and with the same -chunk; a mount checks both against the
// daemons' ping replies and takes the chunk size from them. A
// client may open several striped connections per daemon (its -conns
// flag); each accepted connection is served independently, and a
// connection sending a corrupt or hostile frame is closed rather than
// resynchronized.
//
// With -shm SOCK the daemon additionally serves the shared-memory
// transport on a Unix-domain doorbell socket and advertises it in every
// ping reply: clients running on the same node discover it at mount time
// and move their bulk traffic through an mmap'd segment instead of the
// TCP socket (their -transport flag controls this; "auto" takes the fast
// path whenever it is genuinely reachable).
//
// With -metrics ADDR the daemon serves its live telemetry over HTTP:
// Prometheus text exposition on /metrics, the same data as a JSON
// document on /statz, and the net/http/pprof profiling handlers under
// /debug/pprof/. The endpoint carries no authentication — bind it to
// loopback (the default form, e.g. -metrics 127.0.0.1:9100) unless the
// network is trusted; see docs/OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cli"
	"repro/internal/client"
	"repro/internal/daemon"
	"repro/internal/meta"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/vfs"
)

func main() {
	listen := flag.String("listen", ":7777", "TCP listen address")
	data := flag.String("data", "", "node-local data directory (required)")
	id := flag.Int("id", 0, "daemon index within the cluster host list")
	chunk := cli.Size(meta.DefaultChunkSize)
	flag.Var(&chunk, "chunk", "chunk size, cluster-wide: every daemon of a deployment must be started with the same value, and clients learn it from the daemons at mount")
	pool := flag.Int("pool", 16, "concurrent RPC handlers")
	syncWAL := flag.Bool("sync-wal", false, "fsync metadata WAL per operation")
	shm := flag.String("shm", "", "serve the shared-memory transport on this Unix socket (advertised to co-located clients)")
	shmSeg := flag.Int("shm-seg", transport.DefaultShmSegBytes, "shared-memory segment bytes per connection")
	metrics := flag.String("metrics", "", "serve /metrics, /statz and /debug/pprof on this HTTP address (bind loopback unless the network is trusted)")
	printMetrics := flag.Bool("print-metrics", false, "print the exported metric catalog and exit")
	flag.Parse()

	if *printMetrics {
		for _, name := range daemon.Catalog(client.ClientStats{}) {
			fmt.Println(name)
		}
		return
	}
	if *data == "" {
		fmt.Fprintln(os.Stderr, "gkfs-daemon: -data is required")
		os.Exit(2)
	}
	fs, err := vfs.NewOS(*data)
	if err != nil {
		log.Fatalf("gkfs-daemon: %v", err)
	}
	d, err := daemon.New(daemon.Config{
		ID: *id, FS: fs, ChunkSize: int64(chunk), PoolSize: *pool, SyncWAL: *syncWAL,
		ShmSocket: *shm,
	})
	if err != nil {
		log.Fatalf("gkfs-daemon: %v", err)
	}
	defer d.Close()

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("gkfs-daemon: %v", err)
	}
	if *metrics != "" {
		ml, err := net.Listen("tcp", *metrics)
		if err != nil {
			log.Fatalf("gkfs-daemon: metrics: %v", err)
		}
		go func() {
			srv := &http.Server{Handler: telemetry.Handler(d.Telemetry())}
			if err := srv.Serve(ml); err != nil {
				log.Printf("gkfs-daemon: metrics server stopped: %v", err)
			}
		}()
		log.Printf("gkfs-daemon %d metrics on http://%s/metrics (statz, pprof)", *id, ml.Addr())
	}
	var shmL net.Listener
	if *shm != "" {
		os.Remove(*shm) // a stale socket from a previous run blocks Listen
		shmL, err = net.Listen("unix", *shm)
		if err != nil {
			log.Fatalf("gkfs-daemon: shm doorbell: %v", err)
		}
		go transport.ServeShm(shmL, d.Server(), *shmSeg)
		log.Printf("gkfs-daemon %d shm doorbell on %s (segment %d bytes)", *id, *shm, *shmSeg)
	}
	log.Printf("gkfs-daemon %d serving on %s (data %s, chunk %s, startup %v)",
		*id, l.Addr(), *data, chunk, d.StartupTime())

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		log.Printf("gkfs-daemon: shutting down")
		l.Close()
		if shmL != nil {
			shmL.Close()
		}
	}()

	if err := transport.ServeTCP(l, d.Server()); err != nil {
		st := d.Stats()
		log.Printf("gkfs-daemon: stopped (%v); served creates=%d stats=%d removes=%d writeBytes=%d readBytes=%d",
			err, st.Creates, st.StatOps, st.Removes, st.WriteBytes, st.ReadBytes)
	}
}
