package cage

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestEngineQueuesAcrossModulesOnTagExhaustion is the regression for
// the ROADMAP item: under the combined configuration the process owns a
// single §7.4 sandbox tag. While module A's invocation holds it
// in-flight, an invocation of module B must queue — not surface
// core.ErrSandboxesExhausted — and complete once A's instance is
// checked back in.
func TestEngineQueuesAcrossModulesOnTagExhaustion(t *testing.T) {
	eng := NewEngine(FullHardening())
	defer eng.Close()

	modA, err := eng.CompileSource(`long fa(long n) { return n + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	modB, err := eng.CompileSource(`long fb(long n) { return n + 2; }`)
	if err != nil {
		t.Fatal(err)
	}

	holding := make(chan struct{})
	release := make(chan struct{})
	aDone := make(chan error, 1)
	go func() {
		aDone <- eng.WithInstance(modA, func(inst *Instance) error {
			close(holding)
			<-release
			res, err := inst.Call(context.Background(), "fa", []uint64{1})
			if err == nil && res.Values[0] != 2 {
				err = fmt.Errorf("fa returned %d", res.Values[0])
			}
			return err
		})
	}()
	<-holding

	bDone := make(chan error, 1)
	go func() {
		res, err := eng.Call(context.Background(), modB, "fb", []uint64{1})
		if err == nil && (len(res.Values) != 1 || res.Values[0] != 3) {
			err = fmt.Errorf("fb returned %v", res.Values)
		}
		bDone <- err
	}()

	// B must queue while A pins the only tag.
	select {
	case err := <-bDone:
		t.Fatalf("Invoke(modB) returned while the tag was held: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	if err := <-aDone; err != nil {
		t.Fatalf("module A: %v", err)
	}
	select {
	case err := <-bDone:
		if err != nil {
			t.Fatalf("module B after queueing: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("module B still queued after the tag was freed")
	}
}

// TestRuntimeSharesLoweredProgram pins the compile→lower→cache→pool
// flow: every instance of one module under one runtime executes the
// same cached ir.Program, and repeat instantiations hit the cache.
func TestRuntimeSharesLoweredProgram(t *testing.T) {
	tc := NewToolchain(FullHardening())
	mod, err := tc.CompileSource(`long f(long n) { return n; }`)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(Baseline64())
	a, err := rt.Instantiate(mod)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := rt.Instantiate(mod)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.Raw().Program() != b.Raw().Program() {
		t.Error("instances of one module do not share a lowered program")
	}
	stats := rt.ProgramCacheStats()
	if stats.Misses != 1 || stats.Hits < 1 {
		t.Errorf("program cache stats = %+v, want 1 miss and >=1 hit", stats)
	}

	// A different configuration must lower separately.
	rt2 := NewRuntime(MemorySafetyOnly())
	c, err := rt2.Instantiate(mod)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Raw().Program() == a.Raw().Program() {
		t.Error("distinct configurations share one lowered program")
	}
}

// TestEngineContendedModules drives two modules from many goroutines
// under the 1-tag budget: every invocation must eventually succeed.
func TestEngineContendedModules(t *testing.T) {
	eng := NewEngine(FullHardening())
	defer eng.Close()
	modA, err := eng.CompileSource(`long fa(long n) { return n * 2; }`)
	if err != nil {
		t.Fatal(err)
	}
	modB, err := eng.CompileSource(`long fb(long n) { return n * 3; }`)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			mod, fn, mul := modA, "fa", uint64(2)
			if w%2 == 1 {
				mod, fn, mul = modB, "fb", 3
			}
			for i := 0; i < 10; i++ {
				res, err := eng.Call(context.Background(), mod, fn, []uint64{uint64(i)})
				if err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				if res.Values[0] != uint64(i)*mul {
					errs <- fmt.Errorf("worker %d: %s(%d) = %d", w, fn, i, res.Values[0])
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
