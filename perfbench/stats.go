package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"time"

	"cage"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an
// ascending slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// medianDur sorts xs in place and returns its median.
func medianDur(xs []time.Duration) time.Duration {
	slices.Sort(xs)
	return percentile(xs, 0.5)
}

// median sorts xs in place and returns its median.
func median(xs []float64) float64 {
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[m-1] + xs[m]) / 2
	}
	return xs[m]
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// kindGeomeanMs is the geometric mean, over operation kinds with at
// least one sample, of each kind's median duration, in milliseconds.
func kindGeomeanMs(byKind [][]time.Duration) float64 {
	var meds []float64
	for _, d := range byKind {
		if len(d) > 0 {
			meds = append(meds, float64(medianDur(d))/1e6)
		}
	}
	return geomean(meds)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(string(fields[0]), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// timeSetups runs build n times, each after a full collection so one
// set-up's garbage is not charged to the next, closes every result but
// the last, and returns the last together with the median set-up time.
func timeSetups[T interface{ Close() }](n int, build func() (T, error)) (T, time.Duration, error) {
	var last T
	times := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			last.Close()
		}
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0))
		last = v
	}
	return last, medianDur(times), nil
}

// allocMeter counts heap allocations across a deterministic stretch of
// single-goroutine work. It runs the work on one P (sync.Pool caches
// are per P, so a goroutine moving between Ps would miss them at
// random), empties the pools (two collections) and turns the collector
// off while counting, so the same work allocates the same number of
// objects on every run.
type allocMeter struct {
	gcPercent, procs int
	before           runtime.MemStats
}

func startAllocMeter() *allocMeter {
	m := &allocMeter{procs: runtime.GOMAXPROCS(1)}
	runtime.GC()
	runtime.GC()
	m.gcPercent = debug.SetGCPercent(-1)
	runtime.ReadMemStats(&m.before)
	return m
}

// stop returns the objects and bytes allocated since start.
func (m *allocMeter) stop() (objects, bytes uint64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	debug.SetGCPercent(m.gcPercent)
	runtime.GOMAXPROCS(m.procs)
	return after.Mallocs - m.before.Mallocs, after.TotalAlloc - m.before.TotalAlloc
}

// hostFacts records what a result must be read together with.
func hostFacts(o options) map[string]any {
	eng := cage.NewEngine(cage.FullHardening())
	defer eng.Close()
	memory, fusion := eng.DispatchMode()
	tags := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-tags" {
				tags = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"setup_runs":    o.setupRuns,
		"config":        "full",
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"build_tags":    tags,
		"dispatch_mode": map[string]string{"memory": memory, "fusion": fusion},
		"restore_mode":  eng.RestoreMode(),
	}
}
