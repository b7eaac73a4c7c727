package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/proto"
	"repro/internal/staging"
	"repro/internal/workload"
)

// checkpointConfig shapes the checkpoint/restart workload: workers write
// one checkpoint per round (an epoch), each into a directory of its own,
// and the previous epoch's directory drains to the host concurrently with
// the next epoch's writes — the burst-buffer shape where compute never
// waits for the PFS.
type checkpointConfig struct {
	Workers   int
	Files     int // files per worker
	FileBytes int64
	Epochs    int    // checkpoint rounds
	OutDir    string // staged trees + ground truth land here; empty = temp, removed
	Verify    bool   // byte-compare every staged tree against its epoch's content
}

// ckRetryWindow bounds how long one operation keeps retrying before the
// bench gives up. It exists for CI's kill-a-daemon-mid-checkpoint smoke:
// operations that land in the outage window fail, the daemon restarts on
// the same state, the lazily re-dialing transport reconnects, and the
// retry succeeds — the run finishes with every staged tree intact.
const ckRetryWindow = 30 * time.Second

const ckDir = "/ckpt-bench"

// ckFill regenerates the deterministic content of one checkpoint file:
// same (epoch, worker, file) always yields the same bytes, so staged
// trees are verifiable against ground truth that is never stored.
func ckFill(buf []byte, epoch, w, f int) {
	rand.New(rand.NewSource(int64(epoch)<<40 | int64(w)<<20 | int64(f))).Read(buf)
}

// ckTag names an epoch's checkpoint: its directory under ckDir and its
// staged tree on the host.
func ckTag(epoch int) string { return fmt.Sprintf("ck-%d", epoch) }

func ckEpochDir(epoch int) string { return ckDir + "/" + ckTag(epoch) }
func ckWorkerDir(epoch, w int) string {
	return fmt.Sprintf("%s/w%d", ckEpochDir(epoch), w)
}
func ckPath(epoch, w, f int) string { return fmt.Sprintf("%s/f%d.dat", ckWorkerDir(epoch, w), f) }
func ckRel(w, f int) string         { return filepath.Join(fmt.Sprintf("w%d", w), fmt.Sprintf("f%d.dat", f)) }

// ckRetries counts the failed attempts of every ckRetry of the run: the
// run prints it, so a smoke that kills a daemon mid-run can tell that the
// outage landed while operations were in flight.
var ckRetries atomic.Int64

// ckRetry runs op until it succeeds or the retry window closes.
func ckRetry(op func() error) error {
	deadline := time.Now().Add(ckRetryWindow)
	for {
		err := op()
		if err == nil {
			return nil
		}
		ckRetries.Add(1)
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// ckWriteFile overwrites one checkpoint file in full.
func ckWriteFile(c *client.Client, path string, data []byte) error {
	return ckRetry(func() error {
		fd, err := c.Open(path, client.O_WRONLY|client.O_CREATE|client.O_TRUNC)
		if err != nil {
			return err
		}
		if _, err := c.WriteAt(fd, data, 0); err != nil {
			c.Close(fd)
			return err
		}
		return c.Close(fd)
	})
}

// writeCkEpoch writes every checkpoint file of the epoch into the
// epoch's directory, all workers in parallel, and reports the wall-clock
// time.
func writeCkEpoch(c *client.Client, cfg checkpointConfig, epoch int) (time.Duration, error) {
	begin := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		if err := ckRetry(func() error { return c.MkdirAll(ckWorkerDir(epoch, w)) }); err != nil {
			return 0, err
		}
	}
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, cfg.FileBytes)
			for f := 0; f < cfg.Files; f++ {
				ckFill(buf, epoch, w, f)
				if err := ckWriteFile(c, ckPath(epoch, w, f), buf); err != nil {
					errs[w] = fmt.Errorf("worker %d epoch %d: %w", w, epoch, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return time.Since(begin), errors.Join(errs...)
}

// ckStageOut drains one finished epoch's directory to dst with retries (a
// retry restarts from a clean destination).
func ckStageOut(c *client.Client, epoch int, dst string) (*staging.Report, error) {
	var rep *staging.Report
	err := ckRetry(func() error {
		os.RemoveAll(dst)
		var err error
		rep, err = staging.StageOut(c, ckEpochDir(epoch), dst, staging.Options{})
		if err != nil {
			return err
		}
		return rep.Err()
	})
	return rep, err
}

// ckRemoveEpoch removes a drained epoch's directory tree, giving its
// space back to the node-local stores. A retry after a partial removal
// finds some paths gone already, which is what it wants.
func ckRemoveEpoch(c *client.Client, cfg checkpointConfig, epoch int) error {
	gone := func(err error) error {
		if errors.Is(err, proto.ErrNotExist) {
			return nil
		}
		return err
	}
	files := make([]string, 0, cfg.Workers*cfg.Files)
	for w := 0; w < cfg.Workers; w++ {
		for f := 0; f < cfg.Files; f++ {
			files = append(files, ckPath(epoch, w, f))
		}
	}
	return ckRetry(func() error {
		var errs []error
		for _, err := range c.RemoveMany(files) {
			errs = append(errs, gone(err))
		}
		if err := errors.Join(errs...); err != nil {
			return err
		}
		for w := 0; w < cfg.Workers; w++ {
			if err := gone(c.Remove(ckWorkerDir(epoch, w))); err != nil {
				return err
			}
		}
		return gone(c.Remove(ckEpochDir(epoch)))
	})
}

// ckVerifyTree byte-compares one staged epoch tree against regenerated
// ground truth, and (when keep is set) materializes that ground truth
// next to it for external diff -r checks.
func ckVerifyTree(cfg checkpointConfig, epoch int, stagedDir, truthDir string) (int, int64, error) {
	buf := make([]byte, cfg.FileBytes)
	files, total := 0, int64(0)
	for w := 0; w < cfg.Workers; w++ {
		for f := 0; f < cfg.Files; f++ {
			ckFill(buf, epoch, w, f)
			if truthDir != "" {
				p := filepath.Join(truthDir, ckRel(w, f))
				if err := os.MkdirAll(filepath.Dir(p), 0o777); err != nil {
					return files, total, err
				}
				if err := os.WriteFile(p, buf, 0o666); err != nil {
					return files, total, err
				}
			}
			if !cfg.Verify {
				continue
			}
			got, err := os.ReadFile(filepath.Join(stagedDir, ckRel(w, f)))
			if err != nil {
				return files, total, fmt.Errorf("epoch %d: %w", epoch, err)
			}
			if !bytes.Equal(got, buf) {
				return files, total, fmt.Errorf("epoch %d: staged %s differs from its ground truth", epoch, ckRel(w, f))
			}
			files++
			total += int64(len(got))
		}
	}
	return files, total, nil
}

// runCheckpoint drives the overlapped checkpoint loop: epoch 0 writes
// alone (the baseline), then every later epoch's writes run concurrently
// with the previous epoch's stage-out. The epochs' directories are what
// makes the overlap safe — the drain reads a directory nothing writes any
// more while the writers fill the next one — and the report quantifies
// it: overlapped write throughput over the baseline is the overlap
// efficiency (1.0 = staging is free).
func runCheckpoint(factory workload.ClientFactory, cfg checkpointConfig) error {
	if cfg.Epochs < 2 {
		return fmt.Errorf("checkpoint: need at least 2 epochs (got %d)", cfg.Epochs)
	}
	c, err := factory()
	if err != nil {
		return err
	}
	out := cfg.OutDir
	if out == "" {
		dir, err := os.MkdirTemp("", "gkfs-ck-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		out = dir
	} else if err := os.MkdirAll(out, 0o777); err != nil {
		return err
	}
	epochBytes := int64(cfg.Workers) * int64(cfg.Files) * cfg.FileBytes
	mibps := func(d time.Duration) float64 { return float64(epochBytes) / (1 << 20) / d.Seconds() }
	fmt.Printf("checkpoint: %d workers x %d files x %d bytes, %d epochs\n",
		cfg.Workers, cfg.Files, cfg.FileBytes, cfg.Epochs)

	// Epoch 0 writes with no concurrent drain: the baseline.
	d0, err := writeCkEpoch(c, cfg, 0)
	if err != nil {
		return err
	}
	baseline := mibps(d0)
	fmt.Printf("  epoch 0 write: %10.1f MiB/s (baseline)\n", baseline)

	// Every later epoch: stage out epoch e-1's directory while writing
	// epoch e.
	var overlapped float64
	for e := 1; e < cfg.Epochs; e++ {
		tag := ckTag(e - 1)
		var (
			wg       sync.WaitGroup
			rep      *staging.Report
			stageErr error
			stageDur time.Duration
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			begin := time.Now()
			rep, stageErr = ckStageOut(c, e-1, filepath.Join(out, tag))
			stageDur = time.Since(begin)
			if stageErr == nil {
				stageErr = ckRemoveEpoch(c, cfg, e-1)
			}
		}()
		dw, werr := writeCkEpoch(c, cfg, e)
		wg.Wait()
		if werr != nil {
			return werr
		}
		if stageErr != nil {
			return fmt.Errorf("stage-out %s: %w", tag, stageErr)
		}
		overlapped += mibps(dw)
		fmt.Printf("  epoch %d write: %10.1f MiB/s | stage-out %s (epoch %d): %d files, %10.1f MiB/s\n",
			e, mibps(dw), tag, e-1, rep.Files, float64(rep.Bytes)/(1<<20)/stageDur.Seconds())
	}

	// The last epoch drains without competing writers, completing the set
	// of staged trees (one per epoch) for external diff -r checks.
	last := cfg.Epochs - 1
	lastTag := ckTag(last)
	if _, err := ckStageOut(c, last, filepath.Join(out, lastTag)); err != nil {
		return fmt.Errorf("stage-out %s: %w", lastTag, err)
	}
	if err := ckRemoveEpoch(c, cfg, last); err != nil {
		return fmt.Errorf("remove %s: %w", lastTag, err)
	}

	eff := overlapped / float64(cfg.Epochs-1) / baseline
	fmt.Printf("  overlap efficiency: %.0f%% of baseline write throughput while staging out\n", eff*100)
	fmt.Printf("  retries: %d\n", ckRetries.Load())

	truthRoot := ""
	if cfg.OutDir != "" {
		truthRoot = filepath.Join(out, "truth")
	}
	files, total := 0, int64(0)
	for e := 0; e < cfg.Epochs; e++ {
		truthDir := ""
		if truthRoot != "" {
			truthDir = filepath.Join(truthRoot, ckTag(e))
		}
		n, b, err := ckVerifyTree(cfg, e, filepath.Join(out, ckTag(e)), truthDir)
		if err != nil {
			return fmt.Errorf("checkpoint verify FAILED: %w", err)
		}
		files, total = files+n, total+b
	}
	if cfg.Verify {
		fmt.Printf("checkpoint: verify OK — every staged tree matches its epoch pre-image (%d files, %d bytes)\n",
			files, total)
	}
	return nil
}
