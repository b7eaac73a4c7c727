package gekkofs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/gekkofs"
)

// TestStagingLifecycleHooks runs the full temporary-FS lifecycle through
// the facade: inputs arrive with the deployment (WithStageIn), the job
// computes, and results flush to the host exactly at Close
// (WithStageOutOnClose).
func TestStagingLifecycleHooks(t *testing.T) {
	src, out := t.TempDir(), t.TempDir()
	if err := os.MkdirAll(filepath.Join(src, "input"), 0o777); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("abc123"), 50_000) // multi-chunk
	if err := os.WriteFile(filepath.Join(src, "input", "data.bin"), want, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, "README"), []byte("job inputs"), 0o666); err != nil {
		t.Fatal(err)
	}

	cl, err := gekkofs.New(
		gekkofs.WithNodes(4),
		gekkofs.WithAsyncWrites(),
		gekkofs.WithStageIn(src, "/job", nil),
		gekkofs.WithStageOutOnClose("/job", out, nil),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep := cl.StageInReport()
	if rep == nil {
		t.Fatal("no stage-in report")
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Files != 2 {
		t.Fatalf("stage-in moved %d files, want 2", rep.Files)
	}
	if cl.StageInTime() <= 0 {
		t.Fatal("stage-in time not recorded")
	}

	// "Compute": read an input, write a result.
	fs, err := cl.Mount()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/job/input/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("staged input corrupted")
	}
	if err := fs.WriteFile("/job/result.txt", []byte("computed")); err != nil {
		t.Fatal(err)
	}

	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	orep := cl.StageOutReport()
	if orep == nil {
		t.Fatal("no stage-out report")
	}
	if orep.Files != 3 {
		t.Fatalf("stage-out moved %d files, want 3", orep.Files)
	}
	res, err := os.ReadFile(filepath.Join(out, "result.txt"))
	if err != nil || string(res) != "computed" {
		t.Fatalf("result did not reach the host: %q, %v", res, err)
	}
	back, err := os.ReadFile(filepath.Join(out, "input", "data.bin"))
	if err != nil || !bytes.Equal(back, want) {
		t.Fatalf("input did not round-trip: %v", err)
	}
}

// TestFSStageMethods drives the explicit FS.StageIn/StageOut API: a file
// staged in comes back out byte for byte.
func TestFSStageMethods(t *testing.T) {
	cl, err := gekkofs.New(gekkofs.WithNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fs, err := cl.Mount()
	if err != nil {
		t.Fatal(err)
	}
	src := t.TempDir()
	if err := os.WriteFile(filepath.Join(src, "x.dat"), []byte("payload"), 0o666); err != nil {
		t.Fatal(err)
	}
	rep, err := fs.StageIn(src, "/data", gekkofs.StageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Files != 1 {
		t.Fatalf("moved %d files, want 1", rep.Files)
	}
	out := t.TempDir()
	rep, err = fs.StageOut("/data", out, gekkofs.StageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(out, "x.dat")); err != nil || string(got) != "payload" {
		t.Fatalf("staged out %q, %v; want %q", got, err, "payload")
	}
}
