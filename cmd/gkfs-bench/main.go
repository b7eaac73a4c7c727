// Command gkfs-bench runs the mdtest- and IOR-style workloads against a
// running GekkoFS deployment: start one gkfs-daemon per node, then point
// -daemons at them, as gkfs-shell and gkfs-fsck are.
//
//	gkfs-bench -mode mdtest -daemons host1:7777,host2:7777 -workers 16 -files 2000
//	gkfs-bench -mode ior -daemons ... -workers 8 -block 64MiB -transfer 1MiB
//	gkfs-bench -mode stage -daemons ... -stage-large 256MiB -files 2000
//	gkfs-bench -mode io -daemons ... -block 64MiB -io-delay 25ms
//	gkfs-bench -mode checkpoint -daemons ... -workers 4 -files 8 -ck-bytes 1MiB -ck-out /tmp/ck
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	iofs "io/fs"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cli"
	"repro/internal/client"
	"repro/internal/proto"
	"repro/internal/staging"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	var f cli.Flags
	f.RegisterMount(flag.CommandLine)
	f.RegisterTuning(flag.CommandLine)
	mode := flag.String("mode", "mdtest", "workload: mdtest | ior | stage | io | checkpoint")
	workers := flag.Int("workers", 8, "benchmark processes")
	files := flag.Int("files", 1000, "mdtest: files per worker")
	block := cli.Size(16 << 20)
	flag.Var(&block, "block", "ior: bytes per worker")
	transfer := cli.Size(1 << 20)
	flag.Var(&transfer, "transfer", "ior: transfer size")
	random := flag.Bool("random", false, "ior: random transfer order")
	shared := flag.Bool("shared", false, "ior: one shared file (N-to-1)")
	batch := flag.Int("batch", 0, "mdtest: ops per batched metadata RPC (0/1 = per-op protocol)")
	verify := flag.Bool("verify", true, "ior: verify the read phase; stage: byte-compare the round-tripped tree")
	stageSrc := flag.String("stage-src", "", "stage: existing source tree (empty = generate a mixed tree)")
	stageLarge := cli.Size(64 << 20)
	flag.Var(&stageLarge, "stage-large", "stage: generated large-file size")
	stageSmall := cli.Size(4 << 10)
	flag.Var(&stageSmall, "stage-small", "stage: generated small-file size (count = -files)")
	ioPath := flag.String("io-path", "/io-bench/stream.dat", "io: file path inside the deployment")
	ioDelay := flag.Duration("io-delay", 0, "io: pause between transfers, stretching the write phase so an external fault can land mid-stream")
	ckEpochs := flag.Int("ck-epochs", 3, "checkpoint: rounds to run (each epoch's writes overlap the previous epoch's snapshot stage-out)")
	ckBytes := cli.Size(1 << 20)
	flag.Var(&ckBytes, "ck-bytes", "checkpoint: bytes per checkpoint file (count = -workers x -files)")
	ckOut := flag.String("ck-out", "", "checkpoint: keep the staged trees and ground truth under this directory (empty = temp, removed)")
	flag.Parse()

	// Every worker mounts its own client from the same parsed flags — and,
	// under -trace-sample, into the one registry they carry, so the
	// sampling sequence and metrics aggregate across workers.
	factory := func() (*client.Client, error) {
		c, _, err := client.Mount(f.Target, f.Client)
		return c, err
	}

	switch *mode {
	case "mdtest":
		res, err := workload.RunMDTest(factory, workload.MDTestConfig{
			Dir: "/gkfs-bench-md", Workers: *workers, FilesPerWorker: *files,
			BatchSize: *batch,
		})
		if err != nil {
			log.Fatalf("gkfs-bench: %v", err)
		}
		proto := "per-op RPCs"
		if *batch > 1 {
			proto = fmt.Sprintf("batched RPCs (%d ops/batch)", *batch)
		}
		fmt.Printf("mdtest: %d workers x %d files (single directory), %s\n", *workers, *files, proto)
		fmt.Printf("  create: %10.0f ops/s\n", res.CreatesPerSec)
		fmt.Printf("  stat:   %10.0f ops/s\n", res.StatsPerSec)
		fmt.Printf("  remove: %10.0f ops/s\n", res.RemovesPerSec)
	case "ior":
		res, err := workload.RunIOR(factory, workload.IORConfig{
			Dir: "/gkfs-bench-ior", Workers: *workers, BlockBytes: int64(block),
			TransferSize: int64(transfer), Random: *random, Shared: *shared,
			Verify: *verify, Seed: 42,
		})
		if err != nil {
			log.Fatalf("gkfs-bench: %v", err)
		}
		layout := "file-per-process"
		if *shared {
			layout = "shared file"
		}
		order := "sequential"
		if *random {
			order = "random"
		}
		fmt.Printf("ior: %d workers x %s, %s transfers, %s, %s\n",
			*workers, block, transfer, order, layout)
		fmt.Printf("  write: %10.1f MiB/s\n", res.WriteMiBps)
		fmt.Printf("  read:  %10.1f MiB/s\n", res.ReadMiBps)
	case "stage":
		if err := runStage(factory, stageConfig{
			Src: *stageSrc, LargeBytes: int64(stageLarge), SmallBytes: int64(stageSmall),
			SmallFiles: *files, Workers: *workers, Verify: *verify,
		}); err != nil {
			log.Fatalf("gkfs-bench: %v", err)
		}
	case "io":
		if err := runIO(factory, ioConfig{
			Path: *ioPath, Bytes: int64(block), Transfer: int64(transfer),
			Delay: *ioDelay,
		}); err != nil {
			log.Fatalf("gkfs-bench: %v", err)
		}
	case "checkpoint":
		if err := runCheckpoint(factory, checkpointConfig{
			Workers: *workers, Files: *files, FileBytes: int64(ckBytes),
			Epochs: *ckEpochs, OutDir: *ckOut, Verify: *verify,
		}); err != nil {
			log.Fatalf("gkfs-bench: %v", err)
		}
	default:
		fmt.Fprintf(os.Stderr, "gkfs-bench: unknown mode %q\n", *mode)
		os.Exit(2)
	}
}

// stageConfig shapes the staging workload: the stage-in/compute/stage-out
// loop that dominates temporary-storage deployments (DisTRaC), minus the
// compute.
type stageConfig struct {
	Src        string // existing tree; empty generates one
	LargeBytes int64
	SmallBytes int64
	SmallFiles int
	Workers    int
	Verify     bool
}

// runStage generates (or takes) a host tree, stages it into the cluster,
// stages it back out, and reports both directions' throughput. With
// Verify the round-tripped tree is byte-compared against the source.
func runStage(factory workload.ClientFactory, cfg stageConfig) error {
	c, err := factory()
	if err != nil {
		return err
	}
	src := cfg.Src
	if src == "" {
		dir, err := os.MkdirTemp("", "gkfs-stage-src-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		src = dir
		if _, _, err := generateStageTree(dir, cfg.LargeBytes, cfg.SmallBytes, cfg.SmallFiles); err != nil {
			return err
		}
		fmt.Printf("stage: generated tree: 1 large (%d bytes) + %d small (%d bytes each) + 1 sparse\n",
			cfg.LargeBytes, cfg.SmallFiles, cfg.SmallBytes)
	}
	out, err := os.MkdirTemp("", "gkfs-stage-out-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(out)

	opts := staging.Options{Workers: cfg.Workers}
	begin := time.Now()
	rep, err := staging.StageIn(c, src, "/stage-bench", opts)
	if err != nil {
		return err
	}
	if err := rep.Err(); err != nil {
		return err
	}
	din := time.Since(begin)
	fmt.Printf("stage-in:  %s\n", rep.Summary())
	fmt.Printf("           %10.1f MiB/s, %10.0f files/s\n",
		float64(rep.Bytes)/(1<<20)/din.Seconds(), float64(rep.Files)/din.Seconds())

	begin = time.Now()
	rep, err = staging.StageOut(c, "/stage-bench", out, opts)
	if err != nil {
		return err
	}
	if err := rep.Err(); err != nil {
		return err
	}
	dout := time.Since(begin)
	fmt.Printf("stage-out: %s\n", rep.Summary())
	fmt.Printf("           %10.1f MiB/s, %10.0f files/s\n",
		float64(rep.Bytes)/(1<<20)/dout.Seconds(), float64(rep.Files)/dout.Seconds())

	if cfg.Verify {
		files, bytes, err := compareTrees(src, out)
		if err != nil {
			return fmt.Errorf("round-trip verify: %w", err)
		}
		fmt.Printf("verify: round-tripped tree is byte-identical (%d files, %d bytes)\n",
			files, bytes)
	}
	return nil
}

// generateStageTree builds the mixed tree the staging engine must be
// good at: one large streaming file, many small files, one sparse file
// with a leading hole.
func generateStageTree(dir string, largeBytes, smallBytes int64, smallFiles int) (int64, int, error) {
	rng := rand.New(rand.NewSource(42))
	var total int64
	files := 0
	large := make([]byte, 1<<20)
	f, err := os.Create(filepath.Join(dir, "large.dat"))
	if err != nil {
		return 0, 0, err
	}
	for off := int64(0); off < largeBytes; off += int64(len(large)) {
		rng.Read(large)
		n := min(int64(len(large)), largeBytes-off)
		if _, err := f.Write(large[:n]); err != nil {
			return 0, 0, err
		}
	}
	if err := f.Close(); err != nil {
		return 0, 0, err
	}
	total += largeBytes
	files++

	if err := os.MkdirAll(filepath.Join(dir, "small"), 0o777); err != nil {
		return 0, 0, err
	}
	buf := make([]byte, smallBytes)
	for i := 0; i < smallFiles; i++ {
		rng.Read(buf)
		if err := os.WriteFile(filepath.Join(dir, "small", fmt.Sprintf("s%06d.dat", i)), buf, 0o666); err != nil {
			return 0, 0, err
		}
		total += smallBytes
		files++
	}

	sparse, err := os.Create(filepath.Join(dir, "sparse.dat"))
	if err != nil {
		return 0, 0, err
	}
	tail := []byte("tail-data-after-a-large-hole")
	if _, err := sparse.WriteAt(tail, largeBytes/2); err != nil {
		return 0, 0, err
	}
	if err := sparse.Close(); err != nil {
		return 0, 0, err
	}
	total += largeBytes/2 + int64(len(tail))
	files++
	return total, files, nil
}

// ioConfig shapes the fault-injection I/O workload: one deterministic
// pseudo-random stream written, closed and read back through the same
// mount.
type ioConfig struct {
	Path     string        // file path inside the deployment
	Bytes    int64         // stream length
	Transfer int64         // bytes per Write/Read call
	Delay    time.Duration // pause between transfers (stretches the write phase)
}

// runIO streams cfg.Bytes of seeded pseudo-random data into cfg.Path,
// closes the descriptor (the write barrier), then reads every byte back
// and compares it against the regenerated stream. It exists for CI's
// kill-a-daemon-mid-stream smoke: run it in the background, kill -9 one
// daemon during the write phase, and it must fail, its error naming the
// lost daemon, op and path — every chunk has one copy. -io-delay
// stretches the write phase so an external fault injector has a window
// to land in.
func runIO(factory workload.ClientFactory, cfg ioConfig) error {
	c, err := factory()
	if err != nil {
		return err
	}
	// Create the ancestor directories so namespace walkers (gkfs-fsck,
	// ls) can reach the file — the flat namespace itself would happily
	// serve the path without them.
	for i := 1; i < len(cfg.Path); i++ {
		if cfg.Path[i] == '/' {
			if err := c.Mkdir(cfg.Path[:i]); err != nil && !errors.Is(err, proto.ErrExist) {
				return err
			}
		}
	}
	rng := rand.New(rand.NewSource(42))
	buf := make([]byte, cfg.Transfer)
	fd, err := c.Open(cfg.Path, client.O_WRONLY|client.O_CREATE|client.O_TRUNC)
	if err != nil {
		return err
	}
	begin := time.Now()
	var off int64
	for off < cfg.Bytes {
		n := min(cfg.Transfer, cfg.Bytes-off)
		rng.Read(buf[:n])
		if _, err := c.WriteAt(fd, buf[:n], off); err != nil {
			return fmt.Errorf("write at %d: %w", off, err)
		}
		off += n
		if cfg.Delay > 0 {
			time.Sleep(cfg.Delay)
		}
	}
	if err := c.Close(fd); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	el := time.Since(begin)
	fmt.Printf("io: wrote %d bytes to %s (%.1f MiB/s)\n",
		off, cfg.Path, float64(off)/(1<<20)/el.Seconds())

	// Read back against the regenerated stream.
	rng = rand.New(rand.NewSource(42))
	want := make([]byte, cfg.Transfer)
	got := make([]byte, cfg.Transfer)
	fd, err = c.Open(cfg.Path, client.O_RDONLY)
	if err != nil {
		return err
	}
	defer c.Close(fd)
	for off = 0; off < cfg.Bytes; {
		n := min(cfg.Transfer, cfg.Bytes-off)
		rng.Read(want[:n])
		m := int64(0)
		for m < n {
			k, rerr := c.ReadAt(fd, got[m:n], off+m)
			m += int64(k)
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				return fmt.Errorf("read at %d: %w", off+m, rerr)
			}
		}
		if m != n {
			return fmt.Errorf("io: verify FAILED: short read at offset %d (%d of %d bytes)", off, m, n)
		}
		if !bytes.Equal(want[:n], got[:n]) {
			return fmt.Errorf("io: verify FAILED: bytes at offset %d differ", off)
		}
		off += n
	}
	// Per-op latency percentiles from the daemons' always-on histograms,
	// merged across the deployment.
	if snaps, err := c.DaemonSnapshots(); err == nil {
		var merged telemetry.Snapshot
		for _, s := range snaps {
			merged.Merge(s)
		}
		telemetry.WriteOpTable(os.Stdout, "io: daemon latency (all daemons merged):", merged.Hists)
	}
	fmt.Printf("io: verify OK (%d bytes)\n", cfg.Bytes)
	return nil
}

// compareTrees byte-compares every regular file under a against its
// counterpart under b, reporting how many files and bytes it checked.
func compareTrees(a, b string) (files int, total int64, err error) {
	err = filepath.WalkDir(a, func(p string, d iofs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(a, p)
		if err != nil {
			return err
		}
		want, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		got, err := os.ReadFile(filepath.Join(b, rel))
		if err != nil {
			return err
		}
		if !bytes.Equal(want, got) {
			return fmt.Errorf("%s differs after round trip", rel)
		}
		files++
		total += int64(len(want))
		return nil
	})
	return files, total, err
}
