package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"time"

	"cage"
	"cage/internal/alloc"
	"cage/internal/codegen"
	"cage/internal/exec"
	"cage/internal/fuse"
	"cage/internal/ir"
	"cage/internal/minicc"
	"cage/internal/polybench"
	"cage/internal/profile"
	"cage/internal/serve"
	"cage/internal/wasm"
)

// coldCountOps is how many operations of the cold sequence the
// deterministic-count pass replays.
const coldCountOps = 4

// coldRig holds what the cold workload keeps between operations: only
// the kernels, their expected checksums and (for replays) the host
// surface. No server, engine or module survives an operation.
type coldRig struct {
	kernels []polybench.Kernel
	want    []float64
	host    []*exec.HostModule
	engines engineTotals
}

type allocCount struct{ objects, bytes uint64 }

func (r *coldRig) Close() {}

// op is one cold operation on kernel i: a fresh server, an upload, one
// invocation, a checked result and Close. With a tracer it records the
// four steps as spans under one root and returns the span indices of
// the upload and the invocation; it then also sums the server's engine
// counters into r.engines.
func (r *coldRig) op(i int, tr *tracer) (uploadSpan, invokeSpan int, fuel uint64, err error) {
	k := r.kernels[i]
	root := -1
	step := func(l layer, f func() error) (int, error) {
		if tr == nil {
			return -1, f()
		}
		s := tr.open(l, root)
		err := f()
		tr.close(s)
		return s, err
	}
	if tr != nil {
		tr.kind = int32(i)
		root = tr.open(layerOp, -1)
		defer tr.close(root)
	}
	var srv *serve.Server
	if _, err = step(layerServeNew, func() (err error) {
		srv, err = serve.New(serve.Options{Config: cage.FullHardening(), ConfigName: "full"})
		return err
	}); err != nil {
		return -1, -1, 0, fmt.Errorf("serve.New: %w", err)
	}
	defer func() {
		if srv != nil {
			srv.Close()
		}
	}()
	var id string
	if uploadSpan, err = step(layerServeUpload, func() (err error) {
		id, err = upload(srv.Handler(), serve.DefaultTenant, k.Source)
		return err
	}); err != nil {
		return -1, -1, 0, err
	}
	w := captureWriter{h: make(http.Header)}
	if invokeSpan, err = step(layerServeInvoke, func() error {
		req := httptest.NewRequest(http.MethodPost, "/v1/invoke", bytes.NewReader(invokeBody(id, "run", []uint64{uint64(k.TestN)})))
		srv.Handler().ServeHTTP(&w, req)
		if w.code != http.StatusOK {
			return fmt.Errorf("cold %s: status %d: %s", k.Name, w.code, w.body)
		}
		v, f, err := parseInvokeReply(w.body)
		if err != nil {
			return err
		}
		fuel = f
		if got := exec.F64Val(v); !checksumOK(got, r.want[i]) {
			return fmt.Errorf("cold %s checksum %g, want %g", k.Name, got, r.want[i])
		}
		return nil
	}); err != nil {
		return -1, -1, 0, err
	}
	if tr != nil {
		r.engines.add(srv.Engine())
	}
	_, err = step(layerServeClose, func() error {
		srv.Close()
		srv = nil
		return nil
	})
	return uploadSpan, invokeSpan, fuel, err
}

// fullCodegen is the codegen configuration the full preset compiles
// with (cage.Config.codegenOptions for FullHardening).
var fullCodegen = codegen.Options{Wasm64: true, StackSanitizer: true, PtrAuth: true}

// compileStages replays the upload's compile one module API at a time,
// as spans under parent.
func compileStages(tr *tracer, parent int, src string) (*wasm.Module, error) {
	var file *minicc.File
	var prog *minicc.Program
	var m *wasm.Module
	if err := tr.timed(layerParse, parent, func() (err error) {
		file, err = minicc.Parse(src)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.timed(layerAnalyze, parent, func() (err error) {
		prog, err = minicc.Analyze(file, minicc.Layout64)
		return err
	}); err != nil {
		return nil, err
	}
	err := tr.timed(layerCodegen, parent, func() (err error) {
		m, err = codegen.Compile(prog, fullCodegen)
		return err
	})
	return m, err
}

// instantiateStages replays the pool's first spawn one module API at a
// time, as spans under parent: content hash, import resolution,
// lowering, fusion-profile identity, fusion, instantiation (§7.2 tag
// initialization), allocator binding and the baseline snapshot. It
// returns the instance for the caller to close. A non-nil count
// accumulates the heap allocations of exec.NewInstance.
func (r *coldRig) instantiateStages(tr *tracer, parent int, m *wasm.Module, seed uint64, count *allocCount) (*exec.Instance, error) {
	host := &alloc.Host{}
	ecfg := exec.Config{Features: cage.FullHardening().Features(), HostData: host, Seed: seed}
	var prog *ir.Program
	var inst *exec.Instance
	prof := profile.Default()
	stages := []struct {
		l layer
		f func() error
	}{
		{layerEncode, func() error {
			bin, err := wasm.Encode(m)
			sha256.Sum256(bin)
			return err
		}},
		{layerLink, func() (err error) {
			ecfg.Imports, err = exec.ResolveImports(m, r.host...)
			return err
		}},
		{layerLower, func() (err error) {
			prog, err = ir.Lower(m, exec.LowerConfig(m, ecfg))
			return err
		}},
		{layerProfile, func() error {
			if prof.ID() == "" {
				return fmt.Errorf("empty fusion profile identity")
			}
			return nil
		}},
		{layerFuse, func() error {
			ecfg.Program = fuse.Fuse(prog, prof)
			return nil
		}},
		{layerInstantiate, func() (err error) {
			if count == nil {
				inst, err = exec.NewInstance(m, ecfg)
				return err
			}
			meter := startAllocMeter()
			inst, err = exec.NewInstance(m, ecfg)
			o, b := meter.stop()
			count.objects += o
			count.bytes += b
			return err
		}},
		{layerAlloc, func() (err error) {
			heapBase, ok := inst.GlobalValue("__heap_base")
			if !ok {
				return fmt.Errorf("module lacks __heap_base")
			}
			host.A, err = alloc.New(inst, heapBase)
			return err
		}},
		{layerSnapshot, func() error {
			snap, err := inst.Snapshot()
			if err == nil {
				snap.Close()
			}
			return err
		}},
	}
	for _, s := range stages {
		if err := tr.timed(s.l, parent, s.f); err != nil {
			if inst != nil {
				inst.Close()
			}
			return nil, err
		}
	}
	return inst, nil
}

// replay attributes one traced cold operation on kernel i: the compile
// stages under the upload span, and under the invocation span a fresh
// engine's checkout (itself split into the instantiation stages), first
// call and checkin.
func (r *coldRig) replay(tr *tracer, i, uploadSpan, invokeSpan int) error {
	k := r.kernels[i]
	m, err := compileStages(tr, uploadSpan, k.Source)
	if err != nil {
		return fmt.Errorf("replayed compile of %s: %w", k.Name, err)
	}
	eng := cage.NewEngine(cage.FullHardening())
	defer eng.Close()
	mod, err := eng.CompileSource(k.Source)
	if err != nil {
		return err
	}
	rt, err := tr.roundTrip(eng, mod, layerReplay, invokeSpan, "run", []uint64{uint64(k.TestN)})
	res, callErr, co := rt.res, rt.callErr, rt.checkout
	if err != nil {
		return fmt.Errorf("replayed checkout of %s: %w", k.Name, err)
	}
	if callErr != nil {
		return fmt.Errorf("replayed call of %s: %w", k.Name, callErr)
	}
	if len(res.Values) != 1 || !checksumOK(exec.F64Val(res.Values[0]), r.want[i]) {
		return fmt.Errorf("replayed %s returned %v, want checksum %g", k.Name, res.Values, r.want[i])
	}
	inst, err := r.instantiateStages(tr, co, m, uint64(i)+1, nil)
	if err != nil {
		return fmt.Errorf("replayed instantiation of %s: %w", k.Name, err)
	}
	return inst.Close()
}

// opFunc is the cold workload's operation: a cold operation on the
// n-th kernel of order, replayed for attribution when traced.
func (r *coldRig) opFunc(order []int) opFunc {
	return func(n int, tr *tracer) (int, time.Duration, error) {
		i := order[n%len(order)]
		t0 := time.Now()
		up, inv, _, err := r.op(i, tr)
		lat := time.Since(t0)
		if err == nil && tr != nil {
			err = r.replay(tr, i, up, inv)
		}
		return i, lat, err
	}
}

// coldGCPercent is the collector target the cold workload runs under.
// Each cold operation allocates tens of megabytes (instance memory, tag
// array, snapshot) against an otherwise empty heap. At the default
// target the heap goal stays a few megabytes, so the runtime returns
// those pages to the kernel after nearly every operation and faults
// them back in on the next, and that churn swung throughput between
// runs by 30%. A daemon cold-starting a module carries a resident heap
// that keeps the goal high; this target gives the benchmark process the
// same headroom.
const coldGCPercent = 300

func runCold(o options) (*report, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(coldGCPercent))
	kernels := polybench.Kernels()
	want := make([]float64, len(kernels))
	for i, k := range kernels {
		want[i] = k.Reference(k.TestN)
	}
	// Set-up is process warm-up only: one cold operation per kernel, so
	// first-use costs (profile corpus decoding, heap growth) stay out of
	// the timed window.
	rig, setup, err := timeSetups(o.setupRuns, func() (*coldRig, error) {
		r := &coldRig{kernels: kernels, want: want, host: polybench.HostModules()}
		for i := range kernels {
			if _, _, _, err := r.op(i, nil); err != nil {
				return nil, err
			}
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	order := coldOrder(o.seed, 400)

	var counts opCounts
	if o.trace {
		if counts, err = rig.countPass(rep, order[:coldCountOps]); err != nil {
			return nil, err
		}
	}
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		window /= 2
	}
	op := []opFunc{rig.opFunc(order)}
	win, err := untracedWindow(rep, o, window, op, len(kernels), setup)
	if err != nil || !o.trace {
		return rep, err
	}
	trun := runClients(window, true, op)
	collect(rep, trun, len(kernels))
	lg := newLedger(len(kernels))
	lg.add(trun[0].tr)
	if err := lg.fill(rep, win.p50()); err != nil {
		return nil, err
	}
	for l, name := range map[layer]string{
		layerServeNew:    "serve.new_us",
		layerServeUpload: "serve.upload_us",
		layerServeInvoke: "serve.first_invoke_us",
		layerServeClose:  "serve.close_us",
	} {
		rep.detail[name] = lg.meanUs(l)
	}
	fillEngineLayers(rep, lg)
	counts.fill(rep)
	rig.engines.fill(rep)
	return rep, nil
}

// countPass replays the first operations of the cold sequence on one
// goroutine, counting heap allocations and fuel per operation, measures
// the bare instantiation, and prices the first calls in the timing
// model.
func (r *coldRig) countPass(rep *report, order []int) (opCounts, error) {
	var out opCounts
	var objects, fuel uint64
	for _, i := range order {
		meter := startAllocMeter()
		_, _, f, err := r.op(i, nil)
		n, _ := meter.stop()
		if err != nil {
			return out, fmt.Errorf("count pass: %w", err)
		}
		objects += n
		fuel += f
	}
	ops := float64(len(order))
	out.allocsPerOp = float64(objects) / ops
	out.fuelPerOp = float64(fuel) / ops
	if err := r.instantiateCounts(rep, order); err != nil {
		return out, err
	}
	calls := make([]probeCall, len(order))
	for j, i := range order {
		calls[j] = probeCall{src: r.kernels[i].Source, fn: "run", args: []uint64{uint64(r.kernels[i].TestN)}, kind: i}
	}
	var err error
	out.arch, err = archProbe(calls, len(r.kernels))
	return out, err
}

// instantiateCounts records, per kernel of order, the heap allocations
// of exec.NewInstance, and the allocations and time of
// Runtime.Instantiate when the module's lowered program is already
// cached.
func (r *coldRig) instantiateCounts(rep *report, order []int) error {
	var bareAllocs allocCount
	var hitObjects uint64
	var hitTimes []time.Duration
	for _, i := range order {
		src := r.kernels[i].Source
		scratch := newTracer()
		m, err := compileStages(scratch, -1, src)
		if err != nil {
			return err
		}
		bare, err := r.instantiateStages(scratch, -1, m, 1, &bareAllocs)
		if err != nil {
			return err
		}
		bare.Close()

		rt := cage.NewRuntime(cage.FullHardening())
		mod, err := cage.NewToolchain(cage.FullHardening()).CompileSource(src)
		if err != nil {
			return err
		}
		for j := 0; j < 5; j++ {
			// The first instantiation lowers and caches the program;
			// the second is counted, the rest timed.
			var meter *allocMeter
			if j == 1 {
				meter = startAllocMeter()
			}
			t0 := time.Now()
			inst, err := rt.Instantiate(mod)
			d := time.Since(t0)
			if meter != nil {
				n, _ := meter.stop()
				hitObjects += n
			}
			if err != nil {
				return err
			}
			inst.Close()
			if j > 1 {
				hitTimes = append(hitTimes, d)
			}
		}
	}
	ops := float64(len(order))
	rep.detail["exec.instantiate_allocs"] = float64(bareAllocs.objects) / ops
	rep.detail["exec.instantiate_bytes"] = float64(bareAllocs.bytes) / ops
	rep.detail["cage.instantiate_hit_allocs"] = float64(hitObjects) / ops
	rep.detail["cage.instantiate_hit_us"] = us(medianDur(hitTimes))
	return nil
}
