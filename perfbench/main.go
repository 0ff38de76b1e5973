// Command perfbench is the repository's benchmark. It drives the solver
// registry (oblivious.Lookup(name).Solve) and the online engine on one
// named workload and prints diagnostics followed by one JSON result line:
//
//	bash perfbench/run.sh --workload paper-512 --seed 1 --seconds 20 --trace 0
//
// --trace 0 runs untraced and reports the end-to-end metrics; --trace 1
// re-runs one pass with the benchmark calling each layer itself and
// reports the per-layer metrics. See README.md for the workloads and the
// metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"syscall"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; instances and churn traces derive from it")
	seconds := fs.Float64("seconds", 20, "length of an untraced run's timed phase")
	trace := fs.Int("trace", 0, "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	spanDir := fs.String("spans", ".bench_build", "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}

	fmt.Fprintln(stdout, stamp(w.name, *seed, *trace == 1))
	// The benchmark calls the program from this goroutine alone. Locking
	// it to its thread and pinning the thread to CPU 0 makes every run
	// execute the single-threaded solves and the churn client on the same
	// CPU: unpinned, runs landed on either of a 2-vCPU VM's CPUs, one of
	// which was 25-35% slower than the other, and the per-run metrics
	// split into two modes.
	runtime.LockOSThread()
	if err := pinThread(0); err != nil {
		fmt.Fprintln(stdout, "pinning: not pinned:", err)
	} else {
		fmt.Fprintln(stdout, "pinning: calling thread on cpu 0")
	}
	fmt.Fprintln(stdout, "calibration start:", calibrate())
	report := func(err error) { fmt.Fprintln(stdout, "FAIL:", err) }
	var (
		res result
		err error
	)
	if *trace == 0 {
		res, err = runUntraced(context.Background(), w, *seed, *seconds, stdout, report)
	} else {
		res, err = runTraced(context.Background(), w, *seed, *spanDir, stdout, report)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, "calibration end:", calibrate())
	for k := range res.Metrics {
		if !validMetricName(k) {
			fmt.Fprintf(stderr, "perfbench: invalid metric name %q\n", k)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runtimeSample is a reading of the process's CPU time and the Go
// runtime's allocation and GC counters.
type runtimeSample struct {
	cpu     float64 // user+system seconds
	alloc   uint64  // cumulative bytes allocated
	gcs     uint32
	pauseNs uint64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{cpu: cpuSeconds(), alloc: ms.TotalAlloc, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
