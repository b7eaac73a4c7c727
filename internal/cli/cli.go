// Package cli is the one place a flag shared by the client tools
// (gkfs-shell, gkfs-bench, gkfs-fsck) is registered — name, type, default
// and help text — bound directly to the client.Target or client.Config
// field it sets. The flag set is the knob table: `-h` prints it and
// scripts/check-docs.sh holds the README to it. Mounting with what the
// flags produced is client.Mount(f.Target, f.Client).
package cli

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/telemetry"
)

// Flags is what the shared flags parse into.
type Flags struct {
	// Target is filled by the mount group.
	Target client.Target
	// Client is filled by the tuning group. Its wiring — Conns,
	// ChunkSize — is no flag: client.Mount fills it from the deployment.
	Client client.Config
}

// RegisterMount registers the mount group on fs: where the deployment
// is and how to reach it.
func (f *Flags) RegisterMount(fs *flag.FlagSet) {
	fs.StringVar(&f.Target.Daemons, "daemons", "", "comma-separated daemon addresses, in -id order — the same list in the same order for every client of the deployment (placement hashes over it; a permuted list is refused at mount)")
	fs.StringVar(&f.Target.Transport, "transport", "auto", "daemon transport: auto | tcp | shm (auto takes a daemon's shared-memory fast path when it is reachable from this node; shm fails loudly when it is not)")
	fs.IntVar(&f.Target.Conns, "conns", 1, "striped transport connections per daemon")
	// 60 s is what gkfs-fsck, gkfs-bench and bench/ already ran with;
	// gkfs-shell's 30 s would make their longest RPCs (a -deep probe, a
	// staged segment against a busy daemon) time out where they did not.
	fs.DurationVar(&f.Target.Timeout, "timeout", 60*time.Second, "per-RPC timeout")
}

// RegisterTuning registers the tuning group on fs: how this client
// behaves once mounted. Every client.Config tunable is reachable from
// here or from a gekkofs.With* option (TestEveryTunableIsReachable).
func (f *Flags) RegisterTuning(fs *flag.FlagSet) {
	fs.BoolVar(&f.Client.ReadAhead, "readahead", false, "sequential read-ahead: prefetch the next chunks into a bounded per-descriptor window")
	fs.IntVar(&f.Client.SizeCacheOps, "size-cache", 0, "client size-update cache, the paper's shared-file fix: flush size updates every n writes (0 = off)")
	fs.Func("trace-sample", "trace every Nth RPC: the call carries a trace ID and both ends log a gkfs.trace event (0 = off)", func(s string) error {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return fmt.Errorf("bad sampling interval %q", s)
		}
		// Tracing needs client telemetry. Every client minted from these
		// Flags shares the one registry, so the sampling sequence and the
		// metrics aggregate across a tool's workers.
		f.Client.TraceSample, f.Client.Telemetry = n, nil
		if n > 0 {
			f.Client.Telemetry = telemetry.NewRegistry()
		}
		return nil
	})
}

// Size is a byte count as a flag.Value: it takes plain bytes (524288)
// and binary-unit spellings (512KiB, 64m, 1G) alike, so no tool needs
// its own notion of how a size is written.
type Size int64

// Set parses s, case-insensitively, with a binary unit spelled out (MiB)
// or abbreviated to its first letter (m); sizes are never negative.
func (z *Size) Set(s string) error {
	u := strings.ToLower(strings.TrimSpace(s))
	shift := 0
	for i, unit := range []string{"k", "m", "g"} {
		t, ok := strings.CutSuffix(u, unit+"ib")
		if !ok {
			t, ok = strings.CutSuffix(u, unit)
		}
		if ok {
			u, shift = strings.TrimSpace(t), 10*(i+1)
			break
		}
	}
	v, err := strconv.ParseInt(u, 10, 64)
	if err != nil || v < 0 || v > math.MaxInt64>>shift {
		return fmt.Errorf("bad size %q (want bytes, or a count of KiB/MiB/GiB)", s)
	}
	*z = Size(v << shift)
	return nil
}

// String renders the size with the largest binary unit that divides it.
func (z Size) String() string {
	for i, unit := range []string{"GiB", "MiB", "KiB"} {
		if shift := 30 - 10*i; z != 0 && z%(1<<shift) == 0 {
			return fmt.Sprintf("%d%s", z>>shift, unit)
		}
	}
	return strconv.FormatInt(int64(z), 10)
}
