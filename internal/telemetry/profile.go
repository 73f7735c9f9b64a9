package telemetry

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts a CPU profile into the file cpu and arranges a heap
// profile into the file mem; an empty name skips that profile. The
// returned stop ends the CPU profile and writes the heap profile (after a
// GC, so it shows live steady state). os.Exit skips deferred calls, so a
// command calls stop before every exit — on the error and interrupt paths
// too — or its profiles come out empty. Only the first call to stop does
// anything.
func StartProfiles(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		var errs []error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpuFile.Close())
		}
		if mem != "" {
			errs = append(errs, writeHeapProfile(mem))
		}
		return errors.Join(errs...)
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
