// Command perfbench is the repository benchmark: four workloads, all
// under the paper's Table 3 "full" configuration, each measured end to
// end with tracing off and, in a separate run, split into per-layer
// self times by spans the benchmark opens around calls into each
// module's public functions.
//
//	perfbench --workload serve-clean --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for the reasons each exists):
//
//   - serve-clean: two closed-loop clients drive serve.Server.Handler()
//     in-process; guests are pure scalar functions that never write
//     linear memory, so the pool's data restore is elided.
//   - serve-dirty: the same server and loop; guests malloc, write and
//     free a buffer of seeded size, and a seeded ~1-in-16 of requests
//     calls a use-after-free guest that must trap with an MTE tag
//     mismatch (422 guest_trap).
//   - kernel: one client calls cage.Engine.Call on all 25 polybench
//     kernels at BenchN in seeded order, checking each checksum.
//   - cold: one client; each operation builds a fresh serve.New(full),
//     uploads a seed-drawn kernel source, invokes run(TestN), checks the
//     checksum and closes the server.
//
// The program only ever receives the generated requests; the seed is an
// argument of the benchmark. The last line of standard output is one
// JSON object {"correct","attempted","failed","metrics"}: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1. Earlier
// lines carry the host facts and a detail line: with --trace 0 the
// latency sample count and tail percentiles, with --trace 1 the full
// per-layer ledger of the workload. Run it through run.sh, which builds the
// binary inside the checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// setupRuns is how many times a run repeats its workload's set-up:
// setup_s is the median of several set-ups, so it can gate later
// changes that move work into set-up.
const setupRuns = 5

// options are one benchmark run's parameters.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// setupRuns is how many times the workload's set-up is repeated
	// (the self-test uses one); the last set-up is the one measured.
	setupRuns int
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what one workload run produces: the outcome tallies, every
// metric it measured (end-to-end or per-layer, by mode), the detail
// line (latency tails, or the per-layer ledger with --trace 1), and the
// problems that made outputs wrong.
type report struct {
	attempted int64
	failed    int64
	metrics   map[string]metric
	detail    map[string]float64
	problems  []string
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), detail: make(map[string]float64)}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// problem records a wrong output or a failed cross-check. Only the
// first few are kept; the count is what the result line carries.
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*report, error){
	"serve-clean": func(o options) (*report, error) { return runServe(o, false) },
	"serve-dirty": func(o options) (*report, error) { return runServe(o, true) },
	"kernel":      runKernel,
	"cold":        runCold,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: %v", workloadNames()))
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	o.trace = trace == 1
	o.setupRuns = setupRuns
	if flag.NArg() != 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and writes the facts line, the detail line
// and the result line to w.
func run(w io.Writer, o options) error {
	drive, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames())
	}
	rep, err := drive(o)
	if err != nil {
		return err
	}
	if rep.attempted == 0 {
		return fmt.Errorf("no operation completed in %gs", o.seconds)
	}
	if o.trace {
		rep.set("failed_frac", float64(rep.failed)/float64(rep.attempted), "ratio")
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"facts": hostFacts(o)}); err != nil {
		return err
	}
	detail := "latency"
	if o.trace {
		detail = "ledger"
	}
	if err := enc.Encode(map[string]any{detail: rep.detail}); err != nil {
		return err
	}
	return enc.Encode(result{
		Correct:   rep.failed == 0 && len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
}
