package cli

import "testing"

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
