package workload

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/proto"
)

// IORConfig shapes a data run, mirroring the IOR options the paper uses:
// transfer size, sequential or random offsets, file-per-process or
// shared-file.
type IORConfig struct {
	// Dir is the working directory.
	Dir string
	// Workers is the process count.
	Workers int
	// BlockBytes is the total bytes each worker moves per phase.
	BlockBytes int64
	// TransferSize is the per-operation I/O size.
	TransferSize int64
	// Random shuffles the transfer order (offsets stay aligned, as in
	// IOR's random mode).
	Random bool
	// Shared writes one shared file with strided per-worker segments
	// (N-to-1); file-per-process otherwise (N-to-N).
	Shared bool
	// Verify re-checks the read phase against the written pattern.
	Verify bool
	// Seed fixes the random transfer order.
	Seed int64
}

// IORResult reports both phases.
type IORResult struct {
	// WriteMiBps and ReadMiBps are aggregate bandwidths.
	WriteMiBps, ReadMiBps float64
	// BytesPerWorker echoes the verified configuration.
	BytesPerWorker int64
}

// RunIOR executes a write phase and then a read phase, each with a
// barrier, and reports aggregate MiB/s.
func RunIOR(factory ClientFactory, cfg IORConfig) (IORResult, error) {
	if cfg.Workers <= 0 || cfg.BlockBytes <= 0 || cfg.TransferSize <= 0 {
		return IORResult{}, errors.New("workload: ior needs workers, block and transfer > 0")
	}
	if cfg.BlockBytes%cfg.TransferSize != 0 {
		return IORResult{}, errors.New("workload: block must be a multiple of transfer size")
	}
	setup, err := factory()
	if err != nil {
		return IORResult{}, err
	}
	if err := setup.Mkdir(cfg.Dir); err != nil && !errors.Is(err, proto.ErrExist) {
		return IORResult{}, err
	}

	clients := make([]*client.Client, cfg.Workers)
	for i := range clients {
		c, err := factory()
		if err != nil {
			return IORResult{}, err
		}
		clients[i] = c
	}

	nTransfers := cfg.BlockBytes / cfg.TransferSize
	filePath := func(w int) string {
		if cfg.Shared {
			return cfg.Dir + "/shared.dat"
		}
		return fmt.Sprintf("%s/rank%d.dat", cfg.Dir, w)
	}
	// offset of transfer i for worker w.
	offset := func(w int, i int64) int64 {
		if cfg.Shared {
			// Strided segments: transfer i of worker w lands at
			// (i*Workers + w) * TransferSize, IOR's segmented layout.
			return (i*int64(cfg.Workers) + int64(w)) * cfg.TransferSize
		}
		return i * cfg.TransferSize
	}
	order := func(w int) []int64 {
		idx := make([]int64, nTransfers)
		for i := range idx {
			idx[i] = int64(i)
		}
		if cfg.Random {
			rnd := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			rnd.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		}
		return idx
	}
	pattern := func(w int, i int64, buf []byte) {
		b := byte(w*31 + int(i%97) + 1)
		for j := range buf {
			buf[j] = b
		}
	}

	if cfg.Shared {
		// The shared file must exist before parallel O_WRONLY opens.
		fd, err := setup.Open(filePath(0), client.O_WRONLY|client.O_CREATE)
		if err != nil {
			return IORResult{}, err
		}
		if err := setup.Close(fd); err != nil {
			return IORResult{}, err
		}
	}

	res := IORResult{BytesPerWorker: cfg.BlockBytes}
	phase := func(write bool) (float64, error) {
		var wg sync.WaitGroup
		errs := make([]error, cfg.Workers)
		begin := time.Now()
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := clients[w]
				flags := client.O_RDONLY
				if write {
					flags = client.O_WRONLY | client.O_CREATE
				}
				fd, err := c.Open(filePath(w), flags)
				if err != nil {
					errs[w] = err
					return
				}
				// Fsync and Close are the barriers that complete the phase:
				// deferred size updates flush here, so both results count —
				// a phase that dropped them would report bandwidth for a
				// file whose size never reached its owner.
				defer func() {
					errs[w] = errors.Join(errs[w], c.Fsync(fd), c.Close(fd))
				}()
				buf := make([]byte, cfg.TransferSize)
				want := make([]byte, cfg.TransferSize)
				for _, i := range order(w) {
					off := offset(w, i)
					if write {
						pattern(w, i, buf)
						if _, err := c.WriteAt(fd, buf, off); err != nil {
							errs[w] = err
							return
						}
					} else {
						if _, err := c.ReadAt(fd, buf, off); err != nil {
							errs[w] = err
							return
						}
						if cfg.Verify {
							pattern(w, i, want)
							if !bytes.Equal(buf, want) {
								errs[w] = fmt.Errorf("workload: verify failed at worker %d transfer %d", w, i)
								return
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(begin)
		if err := errors.Join(errs...); err != nil {
			return 0, err
		}
		total := float64(cfg.BlockBytes) * float64(cfg.Workers)
		return total / (1 << 20) / elapsed.Seconds(), nil
	}

	if res.WriteMiBps, err = phase(true); err != nil {
		return res, fmt.Errorf("workload: ior write: %w", err)
	}
	if res.ReadMiBps, err = phase(false); err != nil {
		return res, fmt.Errorf("workload: ior read: %w", err)
	}
	return res, nil
}
