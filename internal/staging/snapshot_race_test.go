package staging_test

// Snapshot isolation under live traffic: concurrent writers overwrite a
// small tree non-stop while the test snapshots it, captures each tag's
// pinned pre-image through the epoch read path, stages the tag out
// concurrently with the writers, and byte-compares the staged tree
// against the capture. The writers' iteration counters prove the drain
// never blocked them; a held reply makes the drain wait for them, so the
// overlap is there by construction, not by the scheduler's luck.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/proto"
	"repro/internal/staging"
	"repro/internal/transport/wiretest"
)

const (
	raceChunk = 4096
	raceFiles = 6
	raceDir   = "/race"
)

// raceSize keeps files 0..2 single-chunk (their pinned content must be
// one complete generation — a chunk write is atomic under the snapshot
// cut) and files 3.. multi-chunk (their pinned content is only required
// to be stable: capture and stage-out must agree byte for byte).
func raceSize(i int) int {
	if i < 3 {
		return 1000 + i*700
	}
	return raceChunk*2 + 500 + i*300
}

func racePath(i int) string { return fmt.Sprintf("%s/f%d", raceDir, i) }

func raceWrite(c *client.Client, i, gen int) error {
	buf := make([]byte, raceSize(i))
	for j := range buf {
		buf[j] = byte(gen % 251)
	}
	fd, err := c.Open(racePath(i), client.O_WRONLY|client.O_CREATE)
	if err != nil {
		return err
	}
	if _, err := c.WriteAt(fd, buf, 0); err != nil {
		c.Close(fd)
		return err
	}
	return c.Close(fd)
}

// captureAt reads one path's full pinned content at epoch; nil with ok
// false means the path did not exist at the epoch.
func captureAt(c *client.Client, path string, epoch uint64) ([]byte, bool, error) {
	buf := make([]byte, raceChunk*4)
	var off int
	for {
		n, err := c.ReadSnapshot(path, epoch, buf[off:], int64(off))
		off += n
		if errors.Is(err, io.EOF) {
			return buf[:off], true, nil
		}
		if errors.Is(err, proto.ErrNotExist) {
			return nil, false, nil
		}
		if err != nil {
			return nil, false, err
		}
		if n == 0 {
			return buf[:off], true, nil
		}
	}
}

// holdLimit bounds how long a drain waits for writer progress: a writer
// that failed never moves the counter, and the assertion reports it.
const holdLimit = 10 * time.Second

func TestSnapshotStageOutUnderConcurrentWriters(t *testing.T) {
	var iters atomic.Uint64
	wire := new(wiretest.Script)
	wc, daemons := newStageCluster(t, 4, client.Config{ChunkSize: raceChunk})
	sc := mountStage(t, daemons, client.Config{ChunkSize: raceChunk}, wire)
	if err := wc.Mkdir(raceDir); err != nil {
		t.Fatal(err)
	}

	// Writers: one per file, overwriting full generations until stopped.
	var (
		stop  atomic.Bool
		wg    sync.WaitGroup
		werrs = make([]error, raceFiles)
	)
	for i := 0; i < raceFiles; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for gen := 1; !stop.Load(); gen++ {
				if err := raceWrite(wc, i, gen); err != nil {
					werrs[i] = err
					return
				}
				iters.Add(1)
			}
		}(i)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	for round := 0; round < 4; round++ {
		tag := fmt.Sprintf("race-%d", round)
		epoch, err := sc.Snapshot(tag)
		if err != nil {
			t.Fatal(err)
		}
		// Capture the pinned pre-image through the epoch read path.
		want := make([][]byte, raceFiles)
		exists := make([]bool, raceFiles)
		for i := 0; i < raceFiles; i++ {
			want[i], exists[i], err = captureAt(sc, racePath(i), epoch)
			if err != nil {
				t.Fatalf("capture %s at %d: %v", racePath(i), epoch, err)
			}
			if i < 3 && exists[i] {
				// Single-chunk files must pin one complete generation:
				// every byte identical, never a torn mix.
				for j := 1; j < len(want[i]); j++ {
					if want[i][j] != want[i][0] {
						t.Fatalf("round %d: %s pinned a torn write (byte %d: %d != %d)",
							round, racePath(i), j, want[i][j], want[i][0])
					}
				}
			}
		}
		// Stage the tag out while the writers keep hammering the files.
		// The drain's first reply is held until the writers have moved
		// past their count at this point, so every drain overlaps writer
		// progress.
		before := iters.Load()
		hold := wire.Hold(1, nil)
		go func() {
			for deadline := time.Now().Add(holdLimit); iters.Load() == before && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			hold.Release()
		}()
		dst := t.TempDir()
		rep, err := staging.StageOut(sc, raceDir, dst, staging.Options{Snapshot: tag, Workers: 3})
		hold.Release()
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		if after := iters.Load(); after == before {
			t.Fatalf("round %d: writers made no progress during the snapshot drain", round)
		}
		// The staged tree is exactly the capture.
		for i := 0; i < raceFiles; i++ {
			got, err := os.ReadFile(filepath.Join(dst, fmt.Sprintf("f%d", i)))
			if !exists[i] {
				if err == nil {
					t.Fatalf("round %d: %s staged but did not exist at epoch %d", round, racePath(i), epoch)
				}
				continue
			}
			if err != nil {
				t.Fatalf("round %d: staged %s: %v", round, racePath(i), err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("round %d: staged %s differs from the epoch pre-image (%d vs %d bytes)",
					round, racePath(i), len(got), len(want[i]))
			}
		}
		if err := sc.SnapshotDrop(tag); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := errors.Join(werrs...); err != nil {
		t.Fatal(err)
	}
}

// TestPinnedEpochIsImmutable is the property behind the test above, asked
// directly: a committed epoch never changes. Seeded writers mutate a
// small tree in every way the namespace allows — whole and partial
// rewrites, truncates, removes and recreates — while the test pins an
// epoch and then reads every file's bytes and size and the directory
// listing at that epoch several times over, starting the moment Snapshot
// returns (so the first pass overlaps whatever the old epoch's mutations
// were still doing) and with the writers still running. Every pass must
// equal the first. The operation sequence replays from the seed; the
// interleaving is the scheduler's.
func TestPinnedEpochIsImmutable(t *testing.T) {
	const (
		seed   = 20260927
		rounds = 4
		passes = 5
	)
	wc, daemons := newStageCluster(t, 4, client.Config{ChunkSize: raceChunk})
	sc := mountStage(t, daemons, client.Config{ChunkSize: raceChunk}, nil)
	if err := wc.Mkdir(raceDir); err != nil {
		t.Fatal(err)
	}

	var (
		stop  atomic.Bool
		wg    sync.WaitGroup
		werrs = make([]error, raceFiles)
	)
	mutate := func(i int, rnd *rand.Rand, gen int) error {
		path := racePath(i)
		switch rnd.Intn(8) {
		case 0:
			err := wc.Truncate(path, int64(rnd.Intn(raceSize(i))))
			if errors.Is(err, proto.ErrNotExist) {
				return nil
			}
			return err
		case 1:
			err := wc.Remove(path)
			if errors.Is(err, proto.ErrNotExist) {
				return nil
			}
			return err
		case 2, 3:
			// A partial rewrite somewhere inside the file's extent.
			off := rnd.Intn(raceSize(i) - 1)
			buf := bytes.Repeat([]byte{byte(gen%250 + 1)}, 1+rnd.Intn(raceSize(i)-off-1))
			fd, err := wc.Open(path, client.O_WRONLY|client.O_CREATE)
			if err != nil {
				return err
			}
			if _, err := wc.WriteAt(fd, buf, int64(off)); err != nil {
				wc.Close(fd)
				return err
			}
			return wc.Close(fd)
		default:
			return raceWrite(wc, i, gen)
		}
	}
	for i := 0; i < raceFiles; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed + int64(i)))
			for gen := 1; !stop.Load(); gen++ {
				if err := mutate(i, rnd, gen); err != nil {
					werrs[i] = fmt.Errorf("seed %d, file %d, gen %d: %w", seed, i, gen, err)
					return
				}
			}
		}(i)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	// view is everything readable of the tree at an epoch.
	type view struct {
		listing string
		data    [raceFiles][]byte
		exists  [raceFiles]bool
		size    [raceFiles]int64
	}
	look := func(epoch uint64) view {
		var v view
		ents, err := sc.ReadDirAt(raceDir, epoch)
		if err != nil {
			t.Fatalf("readdir at %d: %v", epoch, err)
		}
		v.listing = fmt.Sprint(ents)
		for i := 0; i < raceFiles; i++ {
			v.data[i], v.exists[i], err = captureAt(sc, racePath(i), epoch)
			if err != nil {
				t.Fatalf("capture %s at %d: %v", racePath(i), epoch, err)
			}
			fi, err := sc.StatAt(racePath(i), epoch)
			switch {
			case errors.Is(err, proto.ErrNotExist):
				v.size[i] = -1
			case err != nil:
				t.Fatalf("stat %s at %d: %v", racePath(i), epoch, err)
			default:
				v.size[i] = fi.Size()
			}
		}
		return v
	}
	for round := 0; round < rounds; round++ {
		tag := fmt.Sprintf("pin-%d", round)
		epoch, err := sc.Snapshot(tag)
		if err != nil {
			t.Fatal(err)
		}
		first := look(epoch)
		for i := 0; i < raceFiles; i++ {
			if first.exists[i] != (first.size[i] >= 0) || first.exists[i] && int64(len(first.data[i])) != first.size[i] {
				t.Fatalf("seed %d, round %d: %s at epoch %d reads %d bytes (exists=%v) but stats size %d",
					seed, round, racePath(i), epoch, len(first.data[i]), first.exists[i], first.size[i])
			}
		}
		for pass := 1; pass < passes; pass++ {
			again := look(epoch)
			if again.listing != first.listing {
				t.Fatalf("seed %d, round %d, pass %d: listing at epoch %d changed:\n first %s\n now   %s",
					seed, round, pass, epoch, first.listing, again.listing)
			}
			for i := 0; i < raceFiles; i++ {
				if again.exists[i] != first.exists[i] || again.size[i] != first.size[i] || !bytes.Equal(again.data[i], first.data[i]) {
					t.Fatalf("seed %d, round %d, pass %d: %s at epoch %d changed: exists %v -> %v, size %d -> %d, bytes equal %v",
						seed, round, pass, racePath(i), epoch, first.exists[i], again.exists[i],
						first.size[i], again.size[i], bytes.Equal(again.data[i], first.data[i]))
				}
			}
		}
		if err := sc.SnapshotDrop(tag); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := errors.Join(werrs...); err != nil {
		t.Fatal(err)
	}
}
