package exec_test

// Differential tests: the lowered flat-dispatch pipeline must be
// observationally identical to the legacy re-scanning interpreter
// (legacy_test.go) — same results, same trap codes, and same
// timing-model event counts, so the paper's Fig. 14/15 numbers are
// unchanged by the execution-pipeline refactor.

import (
	"errors"
	"testing"

	"cage/internal/alloc"
	"cage/internal/arch"
	"cage/internal/codegen"
	"cage/internal/core"
	"cage/internal/exec"
	"cage/internal/minicc"
	"cage/internal/mte"
	"cage/internal/polybench"
	"cage/internal/wasm"
)

// newKernelInstance instantiates a polybench module with the hardened
// allocator wired up, mirroring polybench.RunModule but keeping the
// instance handle.
func newKernelInstance(t testing.TB, m *wasm.Module, feats core.Features, ctr *arch.Counter) *exec.Instance {
	t.Helper()
	host := &alloc.Host{}
	inst, err := exec.NewInstance(m, exec.Config{
		Features: feats, HostModules: polybench.HostModules(), HostData: host,
		Seed: 1234, Counter: ctr,
	})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	heapBase, ok := inst.GlobalValue("__heap_base")
	if !ok {
		t.Fatal("module lacks __heap_base")
	}
	host.A, err = alloc.New(inst, heapBase)
	if err != nil {
		t.Fatalf("allocator: %v", err)
	}
	return inst
}

func TestLoweredMatchesLegacyOnPolybench(t *testing.T) {
	kernels := []string{"gemm", "2mm", "atax", "jacobi-1d", "durbin"}
	configs := []struct {
		name  string
		opts  codegen.Options
		feats core.Features
	}{
		{"baseline64", codegen.Options{Wasm64: true}, core.Features{}},
		{"memsafety", codegen.Options{Wasm64: true, StackSanitizer: true},
			core.Features{MemSafety: true, MTEMode: mte.ModeSync}},
		{"sandbox", codegen.Options{Wasm64: true},
			core.Features{Sandbox: true, MTEMode: mte.ModeSync}},
		{"full-cage", codegen.Options{Wasm64: true, StackSanitizer: true, PtrAuth: true},
			core.CageAll()},
	}
	for _, name := range kernels {
		k, err := polybench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range configs {
			t.Run(name+"/"+cfg.name, func(t *testing.T) {
				m, err := polybench.Build(k, cfg.opts)
				if err != nil {
					t.Fatal(err)
				}

				var ctrLow arch.Counter
				low := newKernelInstance(t, m, cfg.feats, &ctrLow)
				lowRes, lowErr := low.Invoke("run", uint64(k.TestN))

				var ctrLeg arch.Counter
				leg := newKernelInstance(t, m, cfg.feats, &ctrLeg)
				lr, err := exec.NewLegacyRunner(leg)
				if err != nil {
					t.Fatal(err)
				}
				legRes, legErr := lr.Invoke("run", uint64(k.TestN))

				if (lowErr == nil) != (legErr == nil) {
					t.Fatalf("error mismatch: lowered=%v legacy=%v", lowErr, legErr)
				}
				if lowErr != nil {
					t.Fatalf("kernel failed under both executors: %v", lowErr)
				}
				if len(lowRes) != len(legRes) {
					t.Fatalf("result arity: lowered=%d legacy=%d", len(lowRes), len(legRes))
				}
				for i := range lowRes {
					if lowRes[i] != legRes[i] {
						t.Fatalf("result[%d]: lowered=%#x legacy=%#x", i, lowRes[i], legRes[i])
					}
				}
				// The checksum must also match the C reference.
				if got, want := exec.F64Val(lowRes[0]), k.Reference(k.TestN); got != want {
					// Allow the same tolerance polybench.Validate uses.
					diff := got - want
					if diff < 0 {
						diff = -diff
					}
					scale := want
					if scale < 0 {
						scale = -scale
					}
					if diff > 1e-9*scale {
						t.Fatalf("checksum %g, reference %g", got, want)
					}
				}
				// Event-count identity keeps the paper's timing figures
				// stable across the refactor.
				for ev := arch.Event(0); ev < arch.NumEvents; ev++ {
					if ctrLow.Get(ev) != ctrLeg.Get(ev) {
						t.Errorf("event %v: lowered=%d legacy=%d", ev, ctrLow.Get(ev), ctrLeg.Get(ev))
					}
				}
			})
		}
	}
}

// callKernelSources are call-heavy and deep-recursion programs for the
// frame-machine differential suite: recursive fib (exponential call
// tree), mutual recursion (call chains alternating between functions),
// and deep linear recursion (hundreds of simultaneously live frames —
// the arena keeps growing while the legacy oracle recurses through the
// Go stack). Each must produce identical results, traps, and arch-event
// counts under both executors.
var callKernelSources = []struct {
	name string
	src  string
	arg  uint64
	want uint64
}{
	{"fib", `
long fib(long n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
long run(long n) { return fib(n); }`, 18, 2584},
	{"mutual", `
long is_odd(long n) {
    if (n == 0) { return 0; }
    return is_even(n - 1);
}
long is_even(long n) {
    if (n == 0) { return 1; }
    return is_odd(n - 1);
}
long run(long n) { return is_even(n); }`, 601, 0},
	{"deep", `
long deep(long n) {
    if (n == 0) { return 0; }
    return deep(n - 1) + 1;
}
long run(long n) { return deep(n); }`, 900, 900},
}

// TestFrameMachineMatchesLegacyOnCallKernels is the call-path half of
// the differential suite: where the polybench kernels exercise loops
// and memory, these kernels exercise the frame machine's call/return
// discipline (in-place parameter frames, result slides, deep frame
// towers) against the legacy recursive interpreter, across the same
// four configurations.
func TestFrameMachineMatchesLegacyOnCallKernels(t *testing.T) {
	configs := []struct {
		name  string
		opts  codegen.Options
		feats core.Features
	}{
		{"baseline64", codegen.Options{Wasm64: true}, core.Features{}},
		{"memsafety", codegen.Options{Wasm64: true, StackSanitizer: true},
			core.Features{MemSafety: true, MTEMode: mte.ModeSync}},
		{"sandbox", codegen.Options{Wasm64: true},
			core.Features{Sandbox: true, MTEMode: mte.ModeSync}},
		{"full-cage", codegen.Options{Wasm64: true, StackSanitizer: true, PtrAuth: true},
			core.CageAll()},
	}
	for _, k := range callKernelSources {
		for _, cfg := range configs {
			t.Run(k.name+"/"+cfg.name, func(t *testing.T) {
				file, err := minicc.Parse(k.src)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := minicc.Analyze(file, minicc.Layout64)
				if err != nil {
					t.Fatal(err)
				}
				m, err := codegen.Compile(prog, cfg.opts)
				if err != nil {
					t.Fatal(err)
				}

				var ctrLow arch.Counter
				low, err := exec.NewInstance(m, exec.Config{Features: cfg.feats, Seed: 99, Counter: &ctrLow})
				if err != nil {
					t.Fatal(err)
				}
				lowRes, lowErr := low.Invoke("run", k.arg)

				var ctrLeg arch.Counter
				leg, err := exec.NewInstance(m, exec.Config{Features: cfg.feats, Seed: 99, Counter: &ctrLeg})
				if err != nil {
					t.Fatal(err)
				}
				lr, err := exec.NewLegacyRunner(leg)
				if err != nil {
					t.Fatal(err)
				}
				legRes, legErr := lr.Invoke("run", k.arg)

				if (lowErr == nil) != (legErr == nil) {
					t.Fatalf("error mismatch: frame machine=%v legacy=%v", lowErr, legErr)
				}
				if lowErr != nil {
					t.Fatalf("kernel failed under both executors: %v", lowErr)
				}
				if lowRes[0] != k.want || legRes[0] != k.want {
					t.Fatalf("results: frame machine=%d legacy=%d, want %d", lowRes[0], legRes[0], k.want)
				}
				for ev := arch.Event(0); ev < arch.NumEvents; ev++ {
					if ctrLow.Get(ev) != ctrLeg.Get(ev) {
						t.Errorf("event %v: frame machine=%d legacy=%d", ev, ctrLow.Get(ev), ctrLeg.Get(ev))
					}
				}
			})
		}
	}
}

// TestFrameMachineMatchesLegacyStackOverflow: both executors must trap
// runaway recursion with the same code at the same exact depth.
func TestFrameMachineMatchesLegacyStackOverflow(t *testing.T) {
	src := callKernelSources[2].src // deep
	file, err := minicc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := minicc.Analyze(file, minicc.Layout64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := codegen.Compile(prog, codegen.Options{Wasm64: true})
	if err != nil {
		t.Fatal(err)
	}
	const depth = 64
	low, err := exec.NewInstance(m, exec.Config{MaxCallDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	leg, err := exec.NewInstance(m, exec.Config{MaxCallDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := exec.NewLegacyRunner(leg)
	if err != nil {
		t.Fatal(err)
	}
	// Find the deepest argument the frame machine accepts, then require
	// the legacy oracle to agree on both sides of the boundary.
	deepest := -1
	for n := 0; n < depth+2; n++ {
		if _, err := low.Invoke("run", uint64(n)); err != nil {
			if !exec.IsTrap(err, exec.TrapStackOverflow) {
				t.Fatalf("run(%d) = %v, want TrapStackOverflow", n, err)
			}
			deepest = n - 1
			break
		}
	}
	if deepest < 0 {
		t.Fatal("depth bound never tripped")
	}
	if _, err := lr.Invoke("run", uint64(deepest)); err != nil {
		t.Fatalf("legacy disagrees below the boundary: run(%d) = %v", deepest, err)
	}
	if _, err := lr.Invoke("run", uint64(deepest+1)); !exec.IsTrap(err, exec.TrapStackOverflow) {
		t.Fatalf("legacy disagrees above the boundary: run(%d) = %v", deepest+1, err)
	}
}

// trapModule builds a single-function module exporting f.
func trapModule(results []wasm.ValType, body []wasm.Instr, mem *wasm.MemoryType, tableSize uint64) *wasm.Module {
	m := &wasm.Module{
		Types:   []wasm.FuncType{{Results: results}},
		Funcs:   []wasm.Function{{TypeIdx: 0, Body: body}},
		Exports: []wasm.Export{{Name: "f", Kind: wasm.ExportFunc, Idx: 0}},
	}
	if mem != nil {
		m.Mems = []wasm.MemoryType{*mem}
	}
	if tableSize > 0 {
		m.Tables = []wasm.TableType{{Limits: wasm.Limits{Min: tableSize}}}
	}
	return m
}

// trapCase is one entry of the trap-parity matrix shared by the
// legacy-oracle and fused-tier differential suites.
type trapCase struct {
	name  string
	mod   *wasm.Module
	feats core.Features
	code  exec.TrapCode
}

// trapCases builds the trap matrix fresh on each call (instances
// mutate nothing, but modules must not be shared across fused/unfused
// lowering in one test).
func trapCases() []trapCase {
	mem64 := &wasm.MemoryType{Limits: wasm.Limits{Min: 1}, Memory64: true}
	mem32 := &wasm.MemoryType{Limits: wasm.Limits{Min: 1}}
	cases := []trapCase{
		{
			"unreachable",
			trapModule(nil, []wasm.Instr{wasm.Op(wasm.OpUnreachable), wasm.Op(wasm.OpEnd)}, nil, 0),
			core.Features{}, exec.TrapUnreachable,
		},
		{
			"div-by-zero",
			trapModule([]wasm.ValType{wasm.I64}, []wasm.Instr{
				wasm.I64Const(1), wasm.I64Const(0), wasm.Op(wasm.OpI64DivS), wasm.Op(wasm.OpEnd),
			}, nil, 0),
			core.Features{}, exec.TrapDivByZero,
		},
		{
			"oob-load-bounds64",
			trapModule([]wasm.ValType{wasm.I64}, []wasm.Instr{
				wasm.I64Const(1 << 20), wasm.Load(wasm.OpI64Load, 0), wasm.Op(wasm.OpEnd),
			}, mem64, 0),
			core.Features{}, exec.TrapOutOfBounds,
		},
		{
			"oob-store-guard32",
			trapModule(nil, []wasm.Instr{
				wasm.I32Const(70000), wasm.I32Const(7), wasm.Store(wasm.OpI32Store, 0), wasm.Op(wasm.OpEnd),
			}, mem32, 0),
			core.Features{}, exec.TrapOutOfBounds,
		},
		{
			"oob-load-mte-sandbox",
			trapModule([]wasm.ValType{wasm.I64}, []wasm.Instr{
				wasm.I64Const(1 << 20), wasm.Load(wasm.OpI64Load, 0), wasm.Op(wasm.OpEnd),
			}, mem64, 0),
			core.Features{Sandbox: true, MTEMode: mte.ModeSync}, exec.TrapTagMismatch,
		},
		{
			"call-depth",
			trapModule(nil, []wasm.Instr{wasm.Call(0), wasm.Op(wasm.OpEnd)}, nil, 0),
			core.Features{}, exec.TrapStackOverflow,
		},
		{
			"null-indirect",
			trapModule(nil, []wasm.Instr{
				wasm.I32Const(0), wasm.CallIndirect(0), wasm.Op(wasm.OpEnd),
			}, nil, 1),
			core.Features{}, exec.TrapIndirectCall,
		},
		{
			"segment-double-free",
			trapModule(nil, []wasm.Instr{
				// new(ptr=64, len=16) -> tagged; free twice.
				wasm.I64Const(64), wasm.I64Const(16), wasm.SegmentNew(0),
				wasm.LocalTee(0),
				wasm.I64Const(16), wasm.SegmentFree(0),
				wasm.LocalGet(0), wasm.I64Const(16), wasm.SegmentFree(0),
				wasm.Op(wasm.OpEnd),
			}, mem64, 0),
			core.Features{MemSafety: true, MTEMode: mte.ModeSync}, exec.TrapSegment,
		},
	}
	for i := range cases {
		if cases[i].name == "segment-double-free" {
			cases[i].mod.Funcs[0].Locals = []wasm.ValType{wasm.I64}
		}
	}
	return cases
}

func TestLoweredMatchesLegacyTraps(t *testing.T) {
	for _, tc := range trapCases() {
		t.Run(tc.name, func(t *testing.T) {
			low, err := exec.NewInstance(tc.mod, exec.Config{Features: tc.feats, Seed: 7})
			if err != nil {
				t.Fatalf("instantiate lowered: %v", err)
			}
			_, lowErr := low.Invoke("f")

			leg, err := exec.NewInstance(tc.mod, exec.Config{Features: tc.feats, Seed: 7})
			if err != nil {
				t.Fatalf("instantiate legacy: %v", err)
			}
			lr, err := exec.NewLegacyRunner(leg)
			if err != nil {
				t.Fatal(err)
			}
			_, legErr := lr.Invoke("f")

			var lowTrap, legTrap *exec.Trap
			if !errors.As(lowErr, &lowTrap) {
				t.Fatalf("lowered did not trap: %v", lowErr)
			}
			if !errors.As(legErr, &legTrap) {
				t.Fatalf("legacy did not trap: %v", legErr)
			}
			if lowTrap.Code != tc.code {
				t.Errorf("lowered trap %v (%s), want %v", lowTrap.Code, lowTrap.Msg, tc.code)
			}
			if legTrap.Code != lowTrap.Code {
				t.Errorf("trap mismatch: lowered=%v legacy=%v", lowTrap.Code, legTrap.Code)
			}
		})
	}
}

// TestLoweredBrTableParity drives the same br_table through both
// executors across every selector value, default included.
func TestLoweredBrTableParity(t *testing.T) {
	// f(i) selects via br_table over three nested blocks and returns a
	// distinct constant per arm.
	m := &wasm.Module{
		Types: []wasm.FuncType{{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I64}}},
		Funcs: []wasm.Function{{TypeIdx: 0, Body: []wasm.Instr{
			wasm.Block(wasm.BlockVoid),
			wasm.Block(wasm.BlockVoid),
			wasm.Block(wasm.BlockVoid),
			wasm.LocalGet(0),
			wasm.BrTable([]uint32{0, 1}, 2),
			wasm.Op(wasm.OpEnd),
			wasm.I64Const(10), wasm.Op(wasm.OpReturn),
			wasm.Op(wasm.OpEnd),
			wasm.I64Const(20), wasm.Op(wasm.OpReturn),
			wasm.Op(wasm.OpEnd),
			wasm.I64Const(30),
			wasm.Op(wasm.OpEnd),
		}}},
		Exports: []wasm.Export{{Name: "f", Kind: wasm.ExportFunc, Idx: 0}},
	}
	for sel := uint64(0); sel < 5; sel++ {
		low, err := exec.NewInstance(m, exec.Config{})
		if err != nil {
			t.Fatal(err)
		}
		lowRes, err := low.Invoke("f", sel)
		if err != nil {
			t.Fatalf("sel %d lowered: %v", sel, err)
		}
		leg, err := exec.NewInstance(m, exec.Config{})
		if err != nil {
			t.Fatal(err)
		}
		lr, err := exec.NewLegacyRunner(leg)
		if err != nil {
			t.Fatal(err)
		}
		legRes, err := lr.Invoke("f", sel)
		if err != nil {
			t.Fatalf("sel %d legacy: %v", sel, err)
		}
		if lowRes[0] != legRes[0] {
			t.Fatalf("sel %d: lowered=%d legacy=%d", sel, lowRes[0], legRes[0])
		}
	}
}
