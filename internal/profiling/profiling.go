// Package profiling wires the standard -cpuprofile/-memprofile flags
// into the CLIs, so future perf work on the simulator hot path can be
// profiled on real workloads without editing code:
//
//	vliwsweep -mixes LLHH -cpuprofile cpu.prof
//	vliwsweep -figure table1 -memprofile mem.prof
//	go tool pprof cpu.prof
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling to cpuPath (when non-empty) and returns a
// stop function that ends the CPU profile and writes a heap profile to
// memPath (when non-empty). Either path may be empty; with both empty
// Start is a no-op. Call stop once, when the measured work is done.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
			defer f.Close()
			runtime.GC() // materialize final heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
		}
		return nil
	}, nil
}
