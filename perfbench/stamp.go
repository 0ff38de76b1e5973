package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// stamp identifies the machine, toolchain, commit and seed of a run, so
// figures from different runs can be told apart.
func stamp(workload string, seed int64, traced bool) string {
	return fmt.Sprintf("stamp: workload=%s seed=%d traced=%t go=%s os/arch=%s/%s gomaxprocs=%d numcpu=%d cpu=%q commit=%s",
		workload, seed, traced, runtime.Version(), runtime.GOOS, runtime.GOARCH,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), commit())
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is `git rev-parse HEAD` of the working directory, or "unknown"
// outside a git checkout. The ceiling keeps git from searching the
// directories above the checkout.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB of 10⁶ bytes.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

var calibrationSink float64

// calibrate times a fixed compute loop and a fixed 32 MB memory-streaming
// loop. Printed at the start and the end of every run, they separate
// machine drift from a program change; they are diagnostics, not metrics.
func calibrate() string {
	t0 := time.Now()
	x := 1.0
	for i := 0; i < 50_000_000; i++ {
		x = x*1.0000001 + 1e-9
		if x > 2 {
			x--
		}
	}
	compute := time.Since(t0)

	buf := make([]float64, 4<<20)
	t1 := time.Now()
	s := 0.0
	for r := 0; r < 8; r++ {
		for i := range buf {
			s += buf[i]
			buf[i] = s * 0.5
		}
	}
	stream := time.Since(t1)
	calibrationSink = x + s
	return fmt.Sprintf("compute_ms=%.2f stream_ms=%.2f", compute.Seconds()*1e3, stream.Seconds()*1e3)
}
