package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cage/internal/polybench"
)

// childEnv names the environment variable that makes the test binary
// act as one traced benchmark run of the named workload (seed 11), so a
// test can compare separate processes.
const childEnv = "PERFBENCH_TEST_CHILD"

func TestMain(m *testing.M) {
	if w := os.Getenv(childEnv); w != "" {
		if err := run(os.Stdout, options{workload: w, seed: 11, seconds: 0.6, trace: true, setupRuns: 1}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

type specMetric struct{ Name, Unit string }

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsMatchSpec(t *testing.T) {
	var names []string
	for _, w := range loadSpec(t).Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); !reflect.DeepEqual(got, names) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", got, names)
	}
}

func TestSeedGivesIdenticalRequests(t *testing.T) {
	for _, dirty := range []bool{false, true} {
		for c := 0; c < serveClients; c++ {
			a, b := genServeRequests(7, c, dirty), genServeRequests(7, c, dirty)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("dirty=%t client %d: same seed, different requests", dirty, c)
			}
			if reflect.DeepEqual(a, genServeRequests(8, c, dirty)) {
				t.Errorf("dirty=%t client %d: seeds 7 and 8 drew the same requests", dirty, c)
			}
		}
	}
	if !reflect.DeepEqual(kernelOrder(7, 3), kernelOrder(7, 3)) || !reflect.DeepEqual(coldOrder(7, 3), coldOrder(7, 3)) {
		t.Error("same seed, different kernel order")
	}
	if reflect.DeepEqual(kernelOrder(7, 3), kernelOrder(8, 3)) || reflect.DeepEqual(coldOrder(7, 3), coldOrder(8, 3)) {
		t.Error("seeds 7 and 8 drew the same kernel order")
	}
	// Every kernel round is a permutation, so each kernel is called
	// equally often whatever the seed.
	n := len(polybench.Kernels())
	order := kernelOrder(7, 4)
	for r := 0; r < 4; r++ {
		round := append([]int(nil), order[r*n:(r+1)*n]...)
		sort.Ints(round)
		for i, k := range round {
			if i != k {
				t.Fatalf("round %d is not a permutation: %v", r, order[r*n:(r+1)*n])
			}
		}
	}
}

func TestDirtyMixHasUseAfterFree(t *testing.T) {
	traps := 0
	for _, q := range genServeRequests(1, 0, true) {
		if q.trap {
			traps++
		}
	}
	// One in uafOneIn on average: the 4096-request ring holds ~256.
	if traps < ringSize/uafOneIn/2 || traps > 2*ringSize/uafOneIn {
		t.Fatalf("%d use-after-free requests in a ring of %d", traps, ringSize)
	}
}

// runOnce runs a short smoke of one workload and returns the detail
// line (latency tails, or the ledger of a traced run) and the result
// line.
func runOnce(t *testing.T, workload string, trace bool, seed uint64) (map[string]float64, result) {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, options{workload: workload, seed: seed, seconds: 0.6, trace: trace, setupRuns: 1}); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	var detail map[string]map[string]float64
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &detail); err != nil {
		t.Fatal(err)
	}
	key := "latency"
	if trace {
		key = "ledger"
	}
	return detail[key], res
}

func checkMetrics(t *testing.T, workload string, got map[string]metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", workload, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", workload, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, m.Name, g.Value)
		}
	}
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			latency, res := runOnce(t, w, false, 3)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced: correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, w, res.Metrics, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if v := res.Metrics[m.Name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v)
				}
			}
			if latency["samples"] < 1 || latency["latency_p99_us"] <= 0 {
				t.Errorf("latency line %v lacks the sample count or the tail", latency)
			}

			ledger, res := runOnce(t, w, true, 3)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("traced: correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, w, res.Metrics, spec.PerLayer)
			// Layer self times plus unattributed add up to the traced
			// total (exactly in nanoseconds; per operation here).
			seen := make(map[string]bool)
			sum := 0.0
			for _, name := range layerMetric {
				if !seen[name] {
					seen[name] = true
					sum += ledger[name]
				}
			}
			if total := ledger["trace.total_us"]; math.Abs(sum-total) > 1e-6*total {
				t.Errorf("layer self times sum to %vus per op, traced total is %vus", sum, total)
			}
			if _, ok := ledger["trace.overhead_pct"]; !ok {
				t.Error("ledger lacks the tracing overhead")
			}
		})
	}
}

// TestCountsRepeat checks that the deterministic counts of a traced run
// repeat exactly for the same seed, across two benchmark processes.
// Heap allocations per operation are the exception: Go seeds every map's
// hash per process, so the overflow buckets a map allocates differ by
// an object now and then; they must agree within 1%.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	counts := []string{
		"exec.fuel_per_op", "arch.events_per_call", "arch.tag_checks_per_call",
		"arch.model_cycles", "arch.model_overhead_pct", "fuse.fused_ops",
	}
	child := func(w string) result {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), childEnv+"="+w)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, w := range workloadNames() {
		a, b := child(w), child(w)
		for _, c := range counts {
			if a.Metrics[c] != b.Metrics[c] {
				t.Errorf("%s: %s = %v then %v with the same seed", w, c, a.Metrics[c].Value, b.Metrics[c].Value)
			}
		}
		x, y := a.Metrics["allocs_per_op"].Value, b.Metrics["allocs_per_op"].Value
		if math.Abs(x-y) > 0.01*math.Max(x, y) {
			t.Errorf("%s: allocs_per_op = %v then %v with the same seed", w, x, y)
		}
	}
}
