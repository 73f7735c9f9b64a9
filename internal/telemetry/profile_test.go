package telemetry_test

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"

	"intellinoc/internal/telemetry"
)

// readProfile checks that a pprof file is non-empty, complete gzip.
func readProfile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s: %v", filepath.Base(path), err)
	}
	n, err := io.Copy(io.Discard, zr)
	if err != nil {
		t.Fatalf("%s: %v", filepath.Base(path), err)
	}
	if n == 0 {
		t.Fatalf("%s: empty profile", filepath.Base(path))
	}
}

// TestStartProfiles: after stop, the CPU profile is complete and the heap
// profile is written. A command runs the same stop on its failure path
// before os.Exit as on success, so this covers a failed run too.
func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	stop, err := telemetry.StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	sink := 0
	for i := 0; i < 1_000_000; i++ {
		sink += i * i
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	readProfile(t, cpu)
	readProfile(t, mem)
	if err := stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}

	// The CPU profiler was released: a second session can start.
	stop, err = telemetry.StartProfiles(filepath.Join(dir, "cpu2.out"), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStartProfilesBadPath fails up front and leaves the CPU profiler free.
func TestStartProfilesBadPath(t *testing.T) {
	dir := t.TempDir()
	if _, err := telemetry.StartProfiles(filepath.Join(dir, "missing", "cpu.out"), ""); err == nil {
		t.Fatal("StartProfiles accepted an uncreatable CPU profile path")
	}
	stop, err := telemetry.StartProfiles(filepath.Join(dir, "cpu.out"), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
