package cli

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"repro/gekkofs"
	"repro/internal/client"
	"repro/internal/core"
)

func TestSize(t *testing.T) {
	for in, want := range map[string]int64{
		"0": 0, "524288": 512 << 10, "512KiB": 512 << 10, "512kib": 512 << 10,
		"64m": 64 << 20, "64MiB": 64 << 20, " 1G ": 1 << 30, "3 KiB": 3 << 10, "1000": 1000,
	} {
		var z Size
		if err := z.Set(in); err != nil || int64(z) != want {
			t.Errorf("Set(%q) = %d, %v; want %d", in, z, err, want)
		}
		// What -h prints as a default parses back to the same value.
		var back Size
		if err := back.Set(z.String()); err != nil || back != z {
			t.Errorf("%d renders as %q, which parses to %d, %v", z, z, back, err)
		}
	}
	for _, in := range []string{"", "KiB", "-1", "-4MiB", "1.5MiB", "12MB", "9223372036854775807KiB", "0x10"} {
		var z Size
		if err := z.Set(in); err == nil {
			t.Errorf("Set(%q) accepted as %d", in, z)
		}
	}
}

// wiring is what no knob sets: a mount derives these client.Config fields
// from the deployment (client.Mount, core.Cluster).
var wiring = map[string]bool{"Conns": true, "Dist": true, "ChunkSize": true}

// nonZeroFields names the fields of cfg that differ from the zero Config.
func nonZeroFields(cfg client.Config) map[string]bool {
	set := map[string]bool{}
	v := reflect.ValueOf(cfg)
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).IsZero() {
			set[v.Type().Field(i).Name] = true
		}
	}
	return set
}

// TestEveryTunableIsReachable is the guard on "declared once": a field
// added to client.Config that no registered flag and no gekkofs.With*
// option can set is a knob nobody can turn — it fails here until one
// registration reaches it.
func TestEveryTunableIsReachable(t *testing.T) {
	// Every registered flag, set to a non-default value.
	var f Flags
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
	fromFlags := nonZeroFields(f.Client)

	// Every facade option that takes effect on clients.
	var cc core.Config
	for _, opt := range []gekkofs.Option{
		gekkofs.WithSizeUpdateCache(7), gekkofs.WithAsyncWrites(7), gekkofs.WithReadAhead(7),
		gekkofs.WithChunkCache(7), gekkofs.WithReplicas(7), gekkofs.WithTelemetry(7),
	} {
		opt(&cc)
	}
	fromOptions := nonZeroFields(cc.Client)

	typ := reflect.TypeOf(client.Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		switch {
		case wiring[name]:
			if fromFlags[name] || fromOptions[name] {
				t.Errorf("client.Config.%s is wiring a mount derives, yet a flag or option sets it", name)
			}
		case !fromFlags[name] && !fromOptions[name]:
			t.Errorf("client.Config.%s is reachable from no registered flag and no gekkofs.With* option", name)
		}
	}
}
