package main

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// opSample is one timed operation.
type opSample struct {
	at   time.Duration // completion, measured from the window's start
	lat  time.Duration
	kind int32
	ok   bool
}

// opFunc runs a client's n-th operation (traced when tr is non-nil) and
// returns the operation's kind, its latency, and an error when the
// operation failed or its output was wrong.
type opFunc func(n int, tr *tracer) (kind int, lat time.Duration, err error)

// clientRun is what one closed-loop client did in a timed window.
type clientRun struct {
	ops        []opSample
	tr         *tracer
	ok, failed int64
	errs       []error
}

// closedLoop issues operations back to back — the next only after the
// previous returned — until deadline.
func closedLoop(start, deadline time.Time, tr *tracer, op opFunc) *clientRun {
	out := &clientRun{tr: tr, ops: make([]opSample, 0, 1<<16)}
	for n := 0; time.Now().Before(deadline); n++ {
		kind, lat, err := op(n, tr)
		out.ops = append(out.ops, opSample{at: time.Since(start), lat: lat, kind: int32(kind), ok: err == nil})
		if err != nil {
			out.failed++
			if len(out.errs) < 5 {
				out.errs = append(out.errs, err)
			}
			continue
		}
		out.ok++
	}
	return out
}

// runClients runs one closed loop per op concurrently for d, each with
// its own tracer when traced, and waits for all of them.
func runClients(d time.Duration, traced bool, ops []opFunc) []*clientRun {
	runs := make([]*clientRun, len(ops))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, op := range ops {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i] = closedLoop(start, deadline, tr, op)
		}()
	}
	wg.Wait()
	return runs
}

// window is the merged record of a timed window, ascending by
// completion time.
type window struct {
	ops   []opSample
	kinds int
}

// collect merges the clients' runs, counting every operation as
// attempted and every failed one as failed in the report.
func collect(rep *report, runs []*clientRun, kinds int) *window {
	w := &window{kinds: kinds}
	for _, r := range runs {
		rep.attempted += r.ok + r.failed
		rep.failed += r.failed
		w.ops = append(w.ops, r.ops...)
		for _, e := range r.errs {
			rep.problem("%v", e)
		}
	}
	slices.SortFunc(w.ops, func(a, b opSample) int { return int(a.at - b.at) })
	return w
}

// p50 is the median latency over the whole window.
func (w *window) p50() time.Duration {
	lats := make([]time.Duration, len(w.ops))
	for i, o := range w.ops {
		lats[i] = o.lat
	}
	return medianDur(lats)
}

// Statistics are taken per group of consecutive operations spanning at
// least minGroupTime, and each metric reports the median over groups,
// so a burst of interference from outside the process moves a group,
// not the result. Throughput and the median take groups of at least
// 100 operations; the 99th percentile takes groups of at least 1000,
// so it has ten samples beyond it.
const minGroupTime = time.Second

// groupStats are one group's throughput and latency percentiles.
type groupStats struct {
	opsPerS       float64
	p50, p90, p99 time.Duration
}

// groups splits the window into groups of at least minOps operations.
func (w *window) groups(minOps int) []groupStats {
	var ends []int // exclusive end index of each group
	var from time.Duration
	first := 0
	for i, o := range w.ops {
		if i+1-first >= minOps && o.at-from >= minGroupTime {
			ends = append(ends, i+1)
			first, from = i+1, o.at
		}
	}
	if n := len(w.ops); first < n {
		// A short tail joins the last group rather than form one below
		// the minimum.
		if len(ends) > 0 {
			ends[len(ends)-1] = n
		} else {
			ends = append(ends, n)
		}
	}
	var out []groupStats
	first, from = 0, 0
	for _, end := range ends {
		group := w.ops[first:end]
		lats := make([]time.Duration, len(group))
		ok := 0
		for i, o := range group {
			lats[i] = o.lat
			if o.ok {
				ok++
			}
		}
		slices.Sort(lats)
		to := group[len(group)-1].at
		out = append(out, groupStats{
			opsPerS: float64(ok) / (to - from).Seconds(),
			p50:     percentile(lats, 0.50),
			p90:     percentile(lats, 0.90),
			p99:     percentile(lats, 0.99),
		})
		first, from = end, to
	}
	return out
}

// medianOver is the median of f over groups.
func medianOver(groups []groupStats, f func(groupStats) float64) float64 {
	xs := make([]float64, len(groups))
	for i, g := range groups {
		xs[i] = f(g)
	}
	return median(xs)
}

// setEndToEnd fills the end-to-end metrics every workload reports, and
// the latency detail line: the sample count and the tail percentiles.
// The tails are reported, not gated: between runs on the 2-vCPU VM the
// benchmark was defined on, the 99th percentile spread by 14% (serve-
// clean) to 45% (cold) of its median, beyond any bound the benchmark
// can hold a later change to. peakRSS is the median interval peak the
// RSS sampler saw.
func (w *window) setEndToEnd(rep *report, setup time.Duration, peakRSS float64) {
	small, large := w.groups(100), w.groups(1000)
	byKind := make([][]time.Duration, w.kinds)
	for _, o := range w.ops {
		byKind[o.kind] = append(byKind[o.kind], o.lat)
	}
	rep.set("setup_s", setup.Seconds(), "s")
	rep.set("ops_per_s", medianOver(small, func(g groupStats) float64 { return g.opsPerS }), "1/s")
	rep.set("latency_p50_us", medianOver(small, func(g groupStats) float64 { return us(g.p50) }), "us")
	rep.set("kernel_geomean_ms", kindGeomeanMs(byKind), "ms")
	rep.set("peak_rss_mb", peakRSS, "MB")
	rep.detail["samples"] = float64(len(w.ops))
	rep.detail["groups"] = float64(len(small))
	rep.detail["latency_p90_us"] = medianOver(small, func(g groupStats) float64 { return us(g.p90) })
	rep.detail["p99_groups"] = float64(len(large))
	rep.detail["latency_p99_us"] = medianOver(large, func(g groupStats) float64 { return us(g.p99) })
}

// untracedWindow runs the clients untraced for d and, in an end-to-end
// run, fills the end-to-end metrics from it, peak memory included. The
// window is returned for the traced run's overhead comparison.
func untracedWindow(rep *report, o options, d time.Duration, ops []opFunc, kinds int, setup time.Duration) (*window, error) {
	rss, err := startRSSSampler()
	if err != nil {
		return nil, err
	}
	win := collect(rep, runClients(d, false, ops), kinds)
	peak, err := rss.finish()
	if err != nil {
		return nil, err
	}
	if !o.trace {
		win.setEndToEnd(rep, setup, peak)
	}
	return win, nil
}

// rssSampler reads the process's resident-set high-water mark (VmHWM)
// once per minGroupTime and resets it after each reading, so peak
// memory is taken per interval like the other metrics.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

func startRSSSampler() (*rssSampler, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(minGroupTime)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
			case <-s.stop:
				return
			}
			peak, err := peakRSSMB()
			if err == nil {
				err = resetPeakRSS()
			}
			if err != nil {
				s.err = err
				return
			}
			s.peaks = append(s.peaks, peak)
		}
	}()
	return s, nil
}

// finish stops the sampler and returns the median interval peak; a
// window shorter than one interval reports its own peak.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, s.err
	}
	if len(s.peaks) == 0 {
		return peakRSSMB()
	}
	return median(s.peaks), nil
}

// resetPeakRSS resets VmHWM to the current resident set size.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}
