// Command gkfs-shell is a small CLI client for a running GekkoFS
// deployment (one or more gkfs-daemon processes):
//
//	gkfs-shell -daemons host1:7777,host2:7777 mkdir /results
//	gkfs-shell -daemons host1:7777,host2:7777 put local.dat /results/run1.dat
//	gkfs-shell -daemons host1:7777,host2:7777 ls /results
//	gkfs-shell -daemons host1:7777,host2:7777 cat /results/run1.dat
//	gkfs-shell -daemons host1:7777,host2:7777 stat /results/run1.dat
//	gkfs-shell -daemons host1:7777,host2:7777 get /results/run1.dat out.dat
//	gkfs-shell -daemons host1:7777,host2:7777 rm /results/run1.dat
//	gkfs-shell -daemons ... -manifest m.txt stage-in ./inputs /job
//	gkfs-shell -daemons ... -manifest m.txt -incremental stage-out /job ./results
//	gkfs-shell -daemons host1:7777,host2:7777 stats
//
// The daemon list must be identical (same order) for every client of the
// deployment: responsibilities are resolved by hashing over it — the
// mount (client.Mount, flags from internal/cli) checks it with the daemons.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"time"

	"repro/internal/chunkstore"
	"repro/internal/cli"
	"repro/internal/client"
	"repro/internal/kvstore"
	"repro/internal/proto"
	"repro/internal/staging"
	"repro/internal/telemetry"
)

func main() {
	var f cli.Flags
	f.RegisterMount(flag.CommandLine)
	f.RegisterTuning(flag.CommandLine)
	stageWorkers := flag.Int("stage-workers", 0, "stage-in/stage-out: parallel file transfers (0 = default)")
	manifest := flag.String("manifest", "", "stage-in/stage-out: staging manifest file on the local side")
	incremental := flag.Bool("incremental", false, "stage-out: skip files unmodified since the manifest was recorded")
	jsonOut := flag.Bool("json", false, "stats: emit machine-readable JSON (an array with each daemon's /statz document)")
	watch := flag.Duration("watch", 0, "stats: re-poll and re-print at this interval until interrupted (e.g. -watch 2s)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	c, closeConns, err := client.Mount(f.Target, f.Client)
	if err != nil {
		fatal("%v", err)
	}
	defer closeConns()

	cmd, rest := args[0], args[1:]
	switch cmd {
	case "ls":
		need(rest, 1)
		ents, err := c.ReadDir(rest[0])
		if err != nil {
			fatal("ls: %v", err)
		}
		for _, e := range ents {
			kind := "-"
			if e.IsDir {
				kind = "d"
			}
			fmt.Printf("%s %12d  %s\n", kind, e.Size, e.Name)
		}
	case "mkdir":
		need(rest, 1)
		if err := c.Mkdir(rest[0]); err != nil {
			fatal("mkdir: %v", err)
		}
	case "stat":
		need(rest, 1)
		info, err := c.Stat(rest[0])
		if err != nil {
			fatal("stat: %v", err)
		}
		fmt.Printf("name: %s\nsize: %d\ndir:  %v\nmtime: %s\nctime: %s\n",
			info.Name(), info.Size(), info.IsDir(),
			info.ModTime().Format(time.RFC3339Nano), info.CreateTime().Format(time.RFC3339Nano))
	case "rm":
		need(rest, 1)
		if err := c.Remove(rest[0]); err != nil {
			fatal("rm: %v", err)
		}
	case "truncate":
		need(rest, 2)
		var size int64
		if _, err := fmt.Sscanf(rest[1], "%d", &size); err != nil {
			fatal("truncate: bad size %q", rest[1])
		}
		if err := c.Truncate(rest[0], size); err != nil {
			fatal("truncate: %v", err)
		}
	case "put":
		need(rest, 2)
		src, err := os.Open(rest[0])
		if err != nil {
			fatal("put: %v", err)
		}
		defer src.Close()
		fd, err := c.Open(rest[1], client.O_WRONLY|client.O_CREATE|client.O_TRUNC)
		if err != nil {
			fatal("put: %v", err)
		}
		buf := make([]byte, 4<<20)
		var off int64
		for {
			n, rerr := src.Read(buf)
			if n > 0 {
				if _, werr := c.WriteAt(fd, buf[:n], off); werr != nil {
					fatal("put: %v", werr)
				}
				off += int64(n)
			}
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				fatal("put: %v", rerr)
			}
		}
		if err := c.Close(fd); err != nil {
			fatal("put: %v", err)
		}
		fmt.Printf("wrote %d bytes to %s\n", off, rest[1])
	case "get", "cat":
		need(rest, 1)
		var dst io.Writer = os.Stdout
		if cmd == "get" {
			need(rest, 2)
			f, err := os.Create(rest[1])
			if err != nil {
				fatal("get: %v", err)
			}
			defer f.Close()
			dst = f
		}
		info, err := c.Stat(rest[0])
		if err != nil {
			fatal("%s: %v", cmd, err)
		}
		fd, err := c.Open(rest[0], client.O_RDONLY)
		if err != nil {
			fatal("%s: %v", cmd, err)
		}
		buf := make([]byte, 4<<20)
		for off := int64(0); off < info.Size(); {
			n, rerr := c.ReadAt(fd, buf, off)
			if n > 0 {
				if _, werr := dst.Write(buf[:n]); werr != nil {
					fatal("%s: %v", cmd, werr)
				}
				off += int64(n)
			}
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				fatal("%s: %v", cmd, rerr)
			}
		}
		c.Close(fd)
	case "stage-in", "stage-out":
		need(rest, 2)
		opts := staging.Options{
			Workers:     *stageWorkers,
			Manifest:    *manifest,
			Incremental: *incremental,
		}
		var rep *staging.Report
		var err error
		if cmd == "stage-in" {
			rep, err = staging.StageIn(c, rest[0], rest[1], opts)
		} else {
			rep, err = staging.StageOut(c, rest[0], rest[1], opts)
		}
		if rep != nil {
			fmt.Printf("%s %s -> %s: %s\n", cmd, rest[0], rest[1], rep.Summary())
			for _, note := range rep.Notes {
				fmt.Fprintf(os.Stderr, "note: %s\n", note)
			}
		}
		if err != nil {
			fatal("%s: %v", cmd, err)
		}
		if err := rep.Err(); err != nil {
			fatal("%s: per-file failures:\n%v", cmd, err)
		}
	case "stats":
		for {
			runStats(c, *jsonOut)
			if *watch <= 0 {
				break
			}
			time.Sleep(*watch)
		}
	default:
		usage()
	}
}

// runStats prints one stats poll from the daemons' telemetry snapshots
// (the stats RPC): every counter and gauge per daemon and in total, the
// lines that interpret them, and the merged per-op latency percentiles —
// or, with -json, the snapshots themselves, one /statz document per
// daemon.
func runStats(c *client.Client, jsonOut bool) {
	snaps, err := c.DaemonSnapshots()
	if err != nil {
		fatal("stats: %v", err)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snaps); err != nil {
			fatal("stats: %v", err)
		}
		return
	}
	var total telemetry.Snapshot
	fmt.Printf("%-40s", "metric")
	for i, s := range snaps {
		total.Merge(s)
		fmt.Printf(" %12s", fmt.Sprintf("daemon-%d", i))
	}
	fmt.Printf(" %14s\n", "total")
	// A row per name the daemons sent: a counter added to a daemon shows
	// up here with no edit.
	for _, name := range slices.Sorted(maps.Keys(total.Counters)) {
		fmt.Printf("%-40s", name)
		for _, s := range snaps {
			fmt.Printf(" %12d", s.Counters[name])
		}
		fmt.Printf(" %14d\n", total.Counters[name])
	}
	for _, name := range slices.Sorted(maps.Keys(total.Gauges)) {
		fmt.Printf("%-40s", name)
		for _, s := range snaps {
			fmt.Printf(" %12d", s.Gauges[name])
		}
		fmt.Printf(" %14d\n", total.Gauges[name])
	}
	st := proto.DaemonStatsOf(total)
	fmt.Printf("rpcs: meta=%d chunk=%d batched-ops=%d\n",
		st.MetaRPCs(), st.WriteOps+st.ReadOps, st.BatchedOps)
	if st.ReadOps > 0 {
		// Wire-read efficiency: spans per read RPC rises with the
		// prefetch window; bytes-out vs pushed exposes holes and
		// EOF probes that moved nothing.
		fmt.Printf("read path: %.2f spans/rpc, %d of %d span bytes pushed\n",
			float64(st.ReadSpans)/float64(st.ReadOps),
			st.ReadBytesPushed, st.ReadBytes)
	}
	// Transport-tier counters: frames and wire bytes move over TCP
	// sockets (vectored = gathered writev frames), shm-calls over the
	// shared-memory doorbell — whose bulk bytes never touch a socket,
	// so a co-located deployment shows ShmCalls rising while the wire
	// byte counters stay near the metadata floor.
	fmt.Printf("wire: frames in=%d out=%d, bytes in=%d out=%d, vectored=%d, shm-calls=%d\n",
		st.FramesIn, st.FramesOut, st.WireBytesIn, st.WireBytesOut,
		st.VectoredWrites, st.ShmCalls)
	// What this mount's descriptors did not have to ask or tell the
	// metadata owners: I/O that lay wholly below a path's acknowledged size.
	cs := c.Stats()
	fmt.Printf("size floor: size-updates-elided=%d size-probes-elided=%d\n",
		cs.SizeUpdatesElided, cs.SizeProbesElided)
	// The metadata engine: resolves near folds means hot size keys keep
	// losing their base to checkpoints.
	var kv kvstore.Stats
	total.View(&kv)
	fmt.Printf("metadata store: folds=%d resolves=%d checkpoints=%d\n",
		kv.MergeFolds, kv.MergeResolves, kv.Checkpoints)
	// The open-chunk cache: a low hit share on a small-I/O workload means
	// its hot chunk set outgrew the cache and every miss pays an open. The
	// mapped share is the read-reply bytes sent from a chunk file's mapping
	// rather than copied by a read; well below 1 means the copying
	// fallback served them (shm/mem carriers, unmappable files). The
	// write mapped share is the written bytes copied into a mapping rather
	// than pwritten: small in-place rewrites; map faults are copies that
	// faulted and were redone by pwrite.
	var oc chunkstore.OpenStats
	total.View(&oc)
	fmt.Printf("open chunks: hit-share=%.2f evictions=%d handles=%d mapped-share=%.2f write-mapped-share=%.2f map-faults=%d\n",
		float64(oc.Hits)/float64(max(oc.Hits+oc.Misses, 1)), oc.Evictions, oc.Open,
		float64(oc.MappedBytes)/float64(max(oc.MappedBytes+oc.CopiedBytes, 1)),
		float64(oc.WriteMappedBytes)/float64(max(oc.WriteMappedBytes+oc.WritePwriteBytes, 1)), oc.MapFaults)
	telemetry.WriteOpTable(os.Stdout, "latency (all daemons merged):", total.Hists)
}

func need(args []string, n int) {
	if len(args) < n {
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: gkfs-shell -daemons <addr,...> <command>
commands:
  ls <dir>             list a directory
  mkdir <dir>          create a directory
  stat <path>          show file information
  rm <path>            remove a file or empty directory
  truncate <path> <n>  set a file's size
  put <local> <remote> copy a local file in
  get <remote> <local> copy a file out
  cat <remote>         print a file
  stage-in <localdir> <remotedir>   parallel-copy a directory tree in
  stage-out <remotedir> <localdir>  parallel-copy a directory tree out
  stats                print per-daemon operation counters
flags: see -h`)
	os.Exit(2)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "gkfs-shell: "+format+"\n", args...)
	os.Exit(1)
}
