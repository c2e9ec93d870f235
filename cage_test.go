package cage

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

const quickProgram = `
extern char* malloc(long n);
extern void free(char* p);
extern void print_str(char* s, long n);

long sum(long n) {
    long* a = (long*)malloc(n * 8);
    long s = 0;
    for (long i = 0; i < n; i++) { a[i] = i; s += a[i]; }
    free((char*)a);
    return s;
}

long uaf(void) {
    long* a = (long*)malloc(32);
    a[0] = 9;
    free((char*)a);
    return a[0];
}

void greet(void) {
    print_str("hi from wasm", 12);
}
`

func TestToolchainAndRuntimeEndToEnd(t *testing.T) {
	for _, cfg := range []Config{
		Baseline32(), Baseline64(), MemorySafetyOnly(),
		PointerAuthOnly(), SandboxingOnly(), FullHardening(),
	} {
		mod, err := NewToolchain(cfg).CompileSource(quickProgram)
		if err != nil {
			t.Fatalf("%+v: compile: %v", cfg, err)
		}
		inst, err := NewRuntime(cfg).Instantiate(mod)
		if err != nil {
			t.Fatalf("%+v: instantiate: %v", cfg, err)
		}
		res, err := inst.Call(context.Background(), "sum", []uint64{100})
		if err != nil {
			t.Fatalf("%+v: sum: %v", cfg, err)
		}
		if res.Values[0] != 4950 {
			t.Errorf("%+v: sum = %d", cfg, res.Values[0])
		}
	}
}

func TestUAFTrapsOnlyWhenHardened(t *testing.T) {
	run := func(cfg Config) error {
		mod, err := NewToolchain(cfg).CompileSource(quickProgram)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := NewRuntime(cfg).Instantiate(mod)
		if err != nil {
			t.Fatal(err)
		}
		_, err = inst.Call(context.Background(), "uaf", nil)
		return err
	}
	if err := run(Baseline64()); err != nil {
		t.Errorf("baseline UAF trapped: %v", err)
	}
	err := run(FullHardening())
	if err == nil {
		t.Fatal("hardened UAF not caught")
	}
	if !IsMemorySafetyViolation(err) {
		t.Errorf("wrong classification: %v", err)
	}
	if IsAuthFailure(err) {
		t.Error("UAF misclassified as auth failure")
	}
}

func TestModuleBinaryRoundTrip(t *testing.T) {
	cfg := FullHardening()
	mod, err := NewToolchain(cfg).CompileSource(quickProgram)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := mod.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeModule(bin)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewRuntime(cfg).Instantiate(back)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Call(context.Background(), "sum", []uint64{10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 45 {
		t.Errorf("round-tripped sum = %d", res.Values[0])
	}
	if _, err := DecodeModule([]byte("junk")); err == nil {
		t.Error("junk decoded")
	}
}

func TestStdioRouting(t *testing.T) {
	cfg := FullHardening()
	mod, err := NewToolchain(cfg).CompileSource(quickProgram)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(cfg)
	var out bytes.Buffer
	rt.SetStdio(&out, &out)
	inst, err := rt.Instantiate(mod)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Call(context.Background(), "greet", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "hi from wasm") {
		t.Errorf("stdout = %q", out.String())
	}
}

func TestSharedRuntimeSandboxLimit(t *testing.T) {
	cfg := SandboxingOnly()
	mod, err := NewToolchain(cfg).CompileSource(`long f(void) { return 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(cfg)
	for i := 0; i < 15; i++ {
		if _, err := rt.Instantiate(mod); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
	if _, err := rt.Instantiate(mod); err == nil {
		t.Error("16th sandbox accepted (paper limit: 15 per process)")
	}
}

func TestCrossInstancePointerReuse(t *testing.T) {
	// Paper §4.2: a signed pointer leaked from one instance must not
	// authenticate in another instance of the same process.
	cfg := PointerAuthOnly()
	src := `
long make(void) { return (long)__builtin_pointer_sign((char*)4096); }
long use(long p) { return (long)__builtin_pointer_auth((char*)p); }`
	mod, err := NewToolchain(cfg).CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(cfg)
	i1, err := rt.Instantiate(mod)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := rt.Instantiate(mod)
	if err != nil {
		t.Fatal(err)
	}
	signed, err := i1.Call(context.Background(), "make", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := i1.Call(context.Background(), "use", []uint64{signed.Values[0]}); err != nil {
		t.Errorf("same-instance auth failed: %v", err)
	}
	if _, err := i2.Call(context.Background(), "use", []uint64{signed.Values[0]}); !IsAuthFailure(err) {
		t.Errorf("cross-instance reuse: got %v, want auth failure", err)
	}
}

func TestInvokeF64(t *testing.T) {
	cfg := Baseline64()
	mod, err := NewToolchain(cfg).CompileSource(`double half(long x) { return (double)x / 2.0; }`)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewRuntime(cfg).Instantiate(mod)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Call(context.Background(), "half", []uint64{7})
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.F64("half")
	if err != nil {
		t.Fatal(err)
	}
	if v != 3.5 {
		t.Errorf("half(7) = %v", v)
	}
}

func TestExtendedSandboxesLiftTheLimit(t *testing.T) {
	// Paper §6.4 (future work): combining guard pages with memory
	// tagging allows tag reuse across disjoint address ranges, scaling
	// past 15 sandboxes.
	cfg := SandboxingOnly()
	mod, err := NewToolchain(cfg).CompileSource(`
long poke(long addr) { long* p = (long*)addr; return *p; }
long f(long x) { return x * 2; }`)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(cfg)
	rt.EnableExtendedSandboxes()
	var insts []*Instance
	for i := 0; i < 40; i++ {
		inst, err := rt.Instantiate(mod)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		insts = append(insts, inst)
	}
	// Every instance still works and still cannot escape.
	for i, inst := range insts {
		res, err := inst.Call(context.Background(), "f", []uint64{uint64(i)})
		if err != nil || res.Values[0] != uint64(i*2) {
			t.Fatalf("instance %d compute: %v", i, err)
		}
		if _, err := inst.Call(context.Background(), "poke", []uint64{1 << 30}); err == nil {
			t.Fatalf("instance %d escaped its sandbox", i)
		}
	}
}
