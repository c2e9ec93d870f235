package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"cage"
	"cage/internal/exec"
	"cage/internal/polybench"
)

// checksumOK applies the repository's polybench tolerance.
func checksumOK(got, want float64) bool {
	return math.Abs(got-want) <= 1e-6*math.Max(1, math.Abs(want))
}

// kernelRig is the kernel workload's engine with every kernel compiled
// and warmed (its instance spawned, its program lowered and fused).
// Extended sandboxes keep one pooled instance per kernel alive; without
// them full allows one live instance per process (§7.4) and every call
// would respawn.
type kernelRig struct {
	eng       *cage.Engine
	kernels   []polybench.Kernel
	mods      []*cage.Module
	want      []float64
	checkouts []uint64
}

func (r *kernelRig) Close() { r.eng.Close() }

func buildKernelRig(kernels []polybench.Kernel, want []float64) (*kernelRig, error) {
	eng := cage.NewEngine(cage.FullHardening())
	if err := eng.EnableExtendedSandboxes(); err != nil {
		return nil, err
	}
	r := &kernelRig{eng: eng, kernels: kernels, want: want, checkouts: make([]uint64, len(kernels))}
	for i, k := range kernels {
		mod, err := eng.CompileSource(k.Source)
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("compile %s: %w", k.Name, err)
		}
		r.mods = append(r.mods, mod)
		if err := r.call(i); err != nil {
			eng.Close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return r, nil
}

// call runs kernel i once through Engine.Call and checks its checksum.
func (r *kernelRig) call(i int) error {
	_, err := r.callFuel(i)
	return err
}

func (r *kernelRig) callFuel(i int) (uint64, error) {
	k := r.kernels[i]
	r.checkouts[i]++
	res, err := r.eng.Call(context.Background(), r.mods[i], "run", []uint64{uint64(k.BenchN)})
	if err != nil {
		return 0, fmt.Errorf("%s: %w", k.Name, err)
	}
	return res.Fuel, r.verify(i, res.Values)
}

func (r *kernelRig) verify(i int, values []uint64) error {
	if len(values) != 1 {
		return fmt.Errorf("%s returned %d values", r.kernels[i].Name, len(values))
	}
	if got := exec.F64Val(values[0]); !checksumOK(got, r.want[i]) {
		return fmt.Errorf("%s checksum %g, want %g", r.kernels[i].Name, got, r.want[i])
	}
	return nil
}

// tracedCall runs kernel i through Engine.WithInstanceContext as the
// spans engine.checkout → exec.call → engine.checkin under one root.
func (r *kernelRig) tracedCall(tr *tracer, i int) error {
	k := r.kernels[i]
	tr.kind = int32(i)
	r.checkouts[i]++
	rt, err := tr.roundTrip(r.eng, r.mods[i], layerOp, -1, "run", []uint64{uint64(k.BenchN)})
	res, callErr := rt.res, rt.callErr
	if err != nil {
		return fmt.Errorf("%s checkout: %w", k.Name, err)
	}
	if callErr != nil {
		return fmt.Errorf("%s: %w", k.Name, callErr)
	}
	return r.verify(i, res.Values)
}

// op is the kernel workload's operation: the n-th kernel of order,
// called through Engine.Call, or traced through tracedCall.
func (r *kernelRig) op(order []int) opFunc {
	return func(n int, tr *tracer) (int, time.Duration, error) {
		i := order[n%len(order)]
		t0 := time.Now()
		var err error
		if tr != nil {
			err = r.tracedCall(tr, i)
		} else {
			err = r.call(i)
		}
		return i, time.Since(t0), err
	}
}

func runKernel(o options) (*report, error) {
	kernels := polybench.Kernels()
	want := make([]float64, len(kernels))
	for i, k := range kernels {
		want[i] = k.Reference(k.BenchN)
	}
	rig, setup, err := timeSetups(o.setupRuns, func() (*kernelRig, error) { return buildKernelRig(kernels, want) })
	if err != nil {
		return nil, err
	}
	defer rig.Close()
	rep := newReport()
	order := kernelOrder(o.seed, 400)

	var counts opCounts
	if o.trace {
		if counts, err = rig.countPass(); err != nil {
			return nil, err
		}
	}
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		window /= 2
	}
	op := []opFunc{rig.op(order)}
	win, err := untracedWindow(rep, o, window, op, len(kernels), setup)
	if err != nil {
		return nil, err
	}
	if o.trace {
		trun := runClients(window, true, op)
		collect(rep, trun, len(kernels))
		lg := newLedger(len(kernels))
		lg.add(trun[0].tr)
		if err := lg.fill(rep, win.p50()); err != nil {
			return nil, err
		}
		fillEngineLayers(rep, lg)
		counts.fill(rep)
		fillEngineStats(rep, rig.eng)
	}
	for i, m := range rig.mods {
		ps := rig.eng.PoolStatsFor(m)
		if ps.Recycled+ps.Discarded != rig.checkouts[i] {
			rep.failed++
			rep.problem("cross-check: %s pool checked in %d, client checked out %d",
				kernels[i].Name, ps.Recycled+ps.Discarded, rig.checkouts[i])
		}
	}
	return rep, nil
}

// countPass calls every kernel once in registration order on one
// goroutine, counting heap allocations and fuel per call, then prices
// the same calls in the timing model.
func (r *kernelRig) countPass() (opCounts, error) {
	var out opCounts
	var fuel uint64
	meter := startAllocMeter()
	for i := range r.kernels {
		f, err := r.callFuel(i)
		if err != nil {
			meter.stop()
			return out, fmt.Errorf("count pass: %w", err)
		}
		fuel += f
	}
	objects, _ := meter.stop()
	n := float64(len(r.kernels))
	out.allocsPerOp = float64(objects) / n
	out.fuelPerOp = float64(fuel) / n
	calls := make([]probeCall, len(r.kernels))
	for i, k := range r.kernels {
		calls[i] = probeCall{src: k.Source, fn: "run", args: []uint64{uint64(k.BenchN)}, kind: i}
	}
	var err error
	out.arch, err = archProbe(calls, len(r.kernels))
	return out, err
}
