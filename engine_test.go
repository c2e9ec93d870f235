package cage

import (
	"context"
	"sync"
	"testing"
)

func TestEngineCompileSourceIsCached(t *testing.T) {
	eng := NewEngine(FullHardening())
	defer eng.Close()

	m1, err := eng.CompileSource(quickProgram)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := eng.CompileSource(quickProgram)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("identical source compiled twice: cache returned distinct modules")
	}
	s := eng.Stats()
	if s.Cache.Misses != 1 || s.Cache.Hits != 1 {
		t.Errorf("cache stats = %+v, want 1 miss, 1 hit", s.Cache)
	}

	// A different source must not hit.
	if _, err := eng.CompileSource(quickProgram + "\nlong extra(void) { return 1; }"); err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.Cache.Misses != 2 {
		t.Errorf("cache stats after new source = %+v, want 2 misses", s.Cache)
	}
}

func TestEngineDecodeModuleIsCached(t *testing.T) {
	eng := NewEngine(FullHardening())
	defer eng.Close()

	mod, err := NewToolchain(FullHardening()).CompileSource(quickProgram)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := mod.Encode()
	if err != nil {
		t.Fatal(err)
	}
	d1, err := eng.DecodeModule(bin)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := eng.DecodeModule(bin)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("identical binary decoded twice: cache returned distinct modules")
	}
}

// TestEngineInvokeConcurrent drives every Table 3 configuration from 8+
// goroutines. Under SandboxingOnly the pool cap is the 15-tag budget;
// under FullHardening it is 1 (combined mode), so this also exercises
// checkout blocking.
func TestEngineInvokeConcurrent(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"baseline64", Baseline64()},
		{"memsafety", MemorySafetyOnly()},
		{"sandboxing", SandboxingOnly()},
		{"full", FullHardening()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine(tc.cfg)
			defer eng.Close()
			mod, err := eng.CompileSource(quickProgram)
			if err != nil {
				t.Fatal(err)
			}
			const workers = 8
			const iters = 10
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						res, err := eng.Call(context.Background(), mod, "sum", []uint64{100})
						if err != nil {
							t.Error(err)
							return
						}
						if res.Values[0] != 4950 {
							t.Errorf("sum = %d, want 4950", res.Values[0])
						}
					}
				}()
			}
			wg.Wait()

			s := eng.Stats()
			if budget := poolBudget(tc.cfg); budget != 0 && s.Pools.Live > budget {
				t.Errorf("live instances %d exceed sandbox budget %d", s.Pools.Live, budget)
			}
			if eng.Runtime().sandboxes.InUse() > 15 {
				t.Errorf("sandbox tags in use: %d > 15", eng.Runtime().sandboxes.InUse())
			}
		})
	}
}

// TestEngineTrapDoesNotPoisonNextInvoke is the facade-level poison
// regression: a use-after-free trap in one pooled invocation must not
// corrupt the result of the next, which reuses the same instance.
func TestEngineTrapDoesNotPoisonNextInvoke(t *testing.T) {
	eng := NewEngine(FullHardening()) // pool cap 1: next Invoke reuses the instance
	defer eng.Close()
	mod, err := eng.CompileSource(quickProgram)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Call(context.Background(), mod, "uaf", nil); !IsMemorySafetyViolation(err) {
		t.Fatalf("uaf: got %v, want memory-safety violation", err)
	}
	for i := 0; i < 3; i++ {
		res, err := eng.Call(context.Background(), mod, "sum", []uint64{100})
		if err != nil {
			t.Fatalf("invoke %d after trap: %v", i, err)
		}
		if res.Values[0] != 4950 {
			t.Fatalf("invoke %d after trap: sum = %d, want 4950", i, res.Values[0])
		}
	}
	if s := eng.Stats(); s.Pools.Spawned != 1 {
		t.Errorf("spawned = %d, want 1 (trap must not force re-instantiation)", s.Pools.Spawned)
	}
}

// TestEngineMultipleModulesShareTagBudget is the regression test for
// idle instances pinning sandbox tags: under FullHardening the combined
// tag mode allows a single sandbox (§6.4), so invoking a second module
// must evict the first module's idle instance and proceed — not fail
// with ErrSandboxesExhausted.
func TestEngineMultipleModulesShareTagBudget(t *testing.T) {
	eng := NewEngine(FullHardening())
	defer eng.Close()
	m1, err := eng.CompileSource(`long one(void) { return 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := eng.CompileSource(`long two(void) { return 2; }`)
	if err != nil {
		t.Fatal(err)
	}
	// Every instance lifetime — fresh or recycled, either module — must
	// carry a distinct PAC modifier (§6.3): identical modifiers would
	// let pointers signed in one instance authenticate in another.
	modifiers := make(map[uint64]int)
	cases := []struct {
		mod  *Module
		fn   string
		want uint64
	}{{m1, "one", 1}, {m2, "two", 2}}
	for i := 0; i < 3; i++ {
		for _, c := range cases {
			err := eng.WithInstance(c.mod, func(inst *Instance) error {
				modifiers[inst.Raw().Keys().Modifier]++
				res, err := inst.Call(context.Background(), c.fn, nil)
				if err != nil {
					return err
				}
				if res.Values[0] != c.want {
					t.Errorf("round %d %s = %d, want %d", i, c.fn, res.Values[0], c.want)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("round %d %s: %v", i, c.fn, err)
			}
		}
	}
	for mod, n := range modifiers {
		if n > 1 {
			t.Errorf("PAC modifier %#x shared by %d instance lifetimes", mod, n)
		}
	}
}

func TestEngineWithInstance(t *testing.T) {
	eng := NewEngine(MemorySafetyOnly())
	defer eng.Close()
	mod, err := eng.CompileSource(quickProgram)
	if err != nil {
		t.Fatal(err)
	}
	err = eng.WithInstance(mod, func(inst *Instance) error {
		res, err := inst.Call(context.Background(), "sum", []uint64{10})
		if err != nil {
			return err
		}
		if res.Values[0] != 45 {
			t.Errorf("sum = %d, want 45", res.Values[0])
		}
		if inst.Allocator() == nil {
			t.Error("pooled instance lacks allocator")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInstanceCloseReleasesSandboxTag verifies the teardown half of the
// §7.4 tag budget: closing instances frees tags for new instantiations.
func TestInstanceCloseReleasesSandboxTag(t *testing.T) {
	cfg := SandboxingOnly()
	mod, err := NewToolchain(cfg).CompileSource(quickProgram)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(cfg)
	var insts []*Instance
	for i := 0; i < 15; i++ {
		inst, err := rt.Instantiate(mod)
		if err != nil {
			t.Fatalf("instantiate %d: %v", i, err)
		}
		insts = append(insts, inst)
	}
	if _, err := rt.Instantiate(mod); err == nil {
		t.Fatal("16th instantiation succeeded; tag budget not enforced")
	}
	if err := insts[0].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Instantiate(mod); err != nil {
		t.Fatalf("instantiation after Close failed: %v", err)
	}
}
