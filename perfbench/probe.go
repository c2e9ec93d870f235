package main

import (
	"context"
	"fmt"

	"cage"
	"cage/internal/arch"
	"cage/internal/exec"
	"cage/internal/ir"
)

// probeCall is one guest call the timing-model probe prices.
type probeCall struct {
	src  string
	fn   string
	args []uint64
	kind int
	// trap marks a call that must trap with an MTE tag mismatch under
	// full (it runs to completion under baseline64).
	trap bool
}

// archCounts are timing-model counts: deterministic functions of the
// calls priced, never mixed with wall-clock measurements.
type archCounts struct {
	calls       int
	events      uint64
	tagChecks   uint64
	cycles      float64 // full, on the Cortex-X3 model
	overheadPct float64 // full against baseline64, mean over kinds
	fusedOps    int     // static superinstructions in the programs run
}

func (a archCounts) fill(rep *report) {
	n := float64(a.calls)
	rep.set("arch.events_per_call", float64(a.events)/n, "count")
	rep.set("arch.tag_checks_per_call", float64(a.tagChecks)/n, "count")
	rep.set("arch.model_cycles", a.cycles/n, "cycles")
	rep.set("arch.model_overhead_pct", a.overheadPct, "%")
	rep.set("fuse.fused_ops", float64(a.fusedOps), "count")
}

// archProbe runs calls on fresh full and baseline64 engines and prices
// their event streams on the Cortex-X3 model. The overhead is the
// paper's Fig. 14 quantity: per kind, full cycles over baseline64
// cycles, averaged over kinds, less 100%.
func archProbe(calls []probeCall, kinds int) (archCounts, error) {
	var out archCounts
	ctx := context.Background()
	full := cage.NewEngine(cage.FullHardening())
	defer full.Close()
	if err := full.EnableExtendedSandboxes(); err != nil {
		return out, err
	}
	base := cage.NewEngine(cage.Baseline64())
	defer base.Close()
	core := arch.NewCortexX3()
	fullCycles := make([]float64, kinds)
	baseCycles := make([]float64, kinds)
	seen := make(map[*cage.Module]bool)
	for _, c := range calls {
		mf, err := full.CompileSource(c.src)
		if err != nil {
			return out, fmt.Errorf("probe compile (full): %w", err)
		}
		mb, err := base.CompileSource(c.src)
		if err != nil {
			return out, fmt.Errorf("probe compile (baseline64): %w", err)
		}
		rf, err := full.Call(ctx, mf, c.fn, c.args)
		if c.trap != exec.IsTrap(err, exec.TrapTagMismatch) || (!c.trap && err != nil) {
			return out, fmt.Errorf("probe %s (full): trap expected %t, got %v", c.fn, c.trap, err)
		}
		rb, err := base.Call(ctx, mb, c.fn, c.args)
		if err != nil {
			return out, fmt.Errorf("probe %s (baseline64): %w", c.fn, err)
		}
		out.calls++
		out.events += rf.Events.Total()
		out.tagChecks += rf.Events.Get(arch.EvTagCheckLoad) + rf.Events.Get(arch.EvTagCheckStore)
		cf := rf.Events.Cycles(core)
		out.cycles += cf
		fullCycles[c.kind] += cf
		baseCycles[c.kind] += rb.Events.Cycles(core)
		if !seen[mf] {
			seen[mf] = true
			n, err := fusedOps(full, mf)
			if err != nil {
				return out, err
			}
			out.fusedOps += n
		}
	}
	if out.calls == 0 {
		return out, fmt.Errorf("probe: no calls")
	}
	var sum float64
	var n int
	for k := range fullCycles {
		if baseCycles[k] > 0 {
			sum += 100 * (fullCycles[k]/baseCycles[k] - 1)
			n++
		}
	}
	out.overheadPct = sum / float64(n)
	return out, nil
}

// fusedOps counts the superinstructions in the lowered program an
// engine runs m with.
func fusedOps(eng *cage.Engine, m *cage.Module) (int, error) {
	n := 0
	err := eng.WithInstance(m, func(inst *cage.Instance) error {
		for _, f := range inst.Raw().Program().Funcs {
			for _, in := range f.Code {
				if in.Op >= ir.OpFusedBase {
					n++
				}
			}
		}
		return nil
	})
	return n, err
}

// fillEngineLayers reports the engine round-trip spans every workload
// has: mean checkout, call and checkin per span, the checkout tail,
// and per-kind medians of call and checkin combined by geometric mean.
func fillEngineLayers(rep *report, lg *ledger) {
	rep.set("engine.checkout_us", lg.meanUs(layerCheckout), "us")
	rep.set("engine.checkout_p99_us", us(percentile(lg.durations(layerCheckout), 0.99)), "us")
	rep.set("engine.checkin_us", lg.meanUs(layerCheckin), "us")
	rep.set("exec.call_us", lg.meanUs(layerCall), "us")
	rep.set("exec.call_ms", kindGeomeanMs(lg.byKind[layerCall]), "ms")
	rep.set("engine.checkin_ms", kindGeomeanMs(lg.byKind[layerCheckin]), "ms")
}

// engineTotals sums pool and cache counters over one or more engines.
type engineTotals struct {
	spawned, recycled, discarded uint64
	moduleHits, moduleMisses     uint64
	programHits, programMisses   uint64
}

func (t *engineTotals) add(eng *cage.Engine) {
	st := eng.Stats()
	t.spawned += st.Pools.Spawned
	t.recycled += st.Pools.Recycled
	t.discarded += st.Pools.Discarded
	t.moduleHits += st.Cache.Hits
	t.moduleMisses += st.Cache.Misses
	t.programHits += st.Programs.Hits
	t.programMisses += st.Programs.Misses
}

func ratio(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

func (t *engineTotals) fill(rep *report) {
	rep.set("engine.spawned", float64(t.spawned), "count")
	rep.set("engine.recycle_ratio", ratio(t.recycled, t.discarded), "ratio")
	rep.set("engine.module_cache_hit_ratio", ratio(t.moduleHits, t.moduleMisses), "ratio")
	rep.set("engine.program_cache_hit_ratio", ratio(t.programHits, t.programMisses), "ratio")
}

func fillEngineStats(rep *report, eng *cage.Engine) {
	var t engineTotals
	t.add(eng)
	t.fill(rep)
}
