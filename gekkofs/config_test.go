package gekkofs

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"repro/internal/cli"
	"repro/internal/client"
)

// Wiring is what no knob sets: a deployment derives these fields for each
// daemon (Cluster.startDaemon) and each mount (Cluster.newClient,
// client.Mount).
var (
	daemonWiring = map[string]bool{"ID": true, "FS": true, "ShmSocket": true}
	// AsyncWrites is listed with the wiring because no knob may set it:
	// the client ignores it (client.Config).
	clientWiring = map[string]bool{"Conns": true, "ChunkSize": true, "AsyncWrites": true}
)

// nonZeroFields names the fields of the struct v that differ from their
// zero value.
func nonZeroFields(v any) map[string]bool {
	set := map[string]bool{}
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		if !rv.Field(i).IsZero() {
			set[rv.Type().Field(i).Name] = true
		}
	}
	return set
}

// checkReachable fails for every field of v's type that no knob reached
// (absent from set) and for every wiring field a knob did reach.
func checkReachable(t *testing.T, v any, wiring, set map[string]bool) {
	t.Helper()
	typ := reflect.TypeOf(v)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		switch {
		case wiring[name] && set[name]:
			t.Errorf("%s.%s is wiring a deployment derives, yet a knob sets it", typ, name)
		case !wiring[name] && !set[name]:
			t.Errorf("%s.%s is reachable from no knob", typ, name)
		}
	}
}

// TestEveryTunableIsReachable is the guard on "declared once": a cluster
// knob lives in config and is set by exactly one With* option, a daemon
// knob in daemon.Config, a client knob in client.Config. A field added to
// any of them that no option (nor, for client.Config, registered flag)
// can set is a knob nobody can turn — it fails here until one
// registration reaches it.
func TestEveryTunableIsReachable(t *testing.T) {
	// Every option, set to a non-default value.
	var cfg config
	for _, opt := range []Option{
		WithNodes(7), WithChunkSize(7), WithDataDir("d"),
		WithSizeUpdateCache(7),
		WithTransport("shm"), WithReadAhead(),
		WithStageIn("h", "f", nil), WithStageOutOnClose("f", "h", nil),
		WithTelemetry(7),
	} {
		opt(&cfg)
	}
	checkReachable(t, cfg, nil, nonZeroFields(cfg))
	checkReachable(t, cfg.daemon, daemonWiring, nonZeroFields(cfg.daemon))

	// Every registered client-tool flag, set to a non-default value.
	var f cli.Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f.RegisterMount(fs)
	f.RegisterTuning(fs)
	fs.VisitAll(func(fl *flag.Flag) {
		val := "7"
		if b, ok := fl.Value.(interface{ IsBoolFlag() bool }); ok && b.IsBoolFlag() {
			val = "true"
		}
		if fl.Name == "timeout" {
			val = "7s"
		}
		if err := fs.Set(fl.Name, val); err != nil {
			t.Fatalf("-%s %s: %v", fl.Name, val, err)
		}
	})
	set := nonZeroFields(f.Client)
	for name := range nonZeroFields(cfg.client) {
		set[name] = true
	}
	checkReachable(t, client.Config{}, clientWiring, set)
}
