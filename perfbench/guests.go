package main

import (
	"fmt"
	"math/rand/v2"

	"cage/internal/polybench"
)

// Serve workloads register modulesPerTenant modules for each of tenants
// tenants. Every module has its own constant k, so all are distinct
// content (own registry entry, own instance pool).
const (
	tenants          = 4
	modulesPerTenant = 4
	numModules       = tenants * modulesPerTenant
	// serveClients is the closed loop's client count: the gateway
	// workers of the serve workloads, one per CPU of the 2-CPU machine
	// the benchmark was defined on, fixed so the workload does not
	// change with the host.
	serveClients = 2
	// ringSize is how many requests each client pre-generates; the
	// client replays its ring in order for as long as the run lasts.
	ringSize = 4096
	// uafOneIn is the serve-dirty use-after-free rate: one request in
	// uafOneIn on average.
	uafOneIn = 16
)

func moduleConst(module int) int64 { return int64(3 + 2*module) }

func tenantName(t int) string { return fmt.Sprintf("tenant-%d", t) }

// cleanSource is a serve-clean module: scalar functions only, so no
// call writes linear memory and every checkin can elide the data
// restore.
func cleanSource(k int64) string {
	return fmt.Sprintf(`
long add(long a, long b) { return a + b + %[1]d; }
long mix(long a, long b) { return (a * %[1]d + b) ^ (a >> 3); }
long loop(long n) {
    long s = 0;
    for (long i = 0; i < n; i++) { s = s + (i * %[1]d ^ s); }
    return s;
}
`, k)
}

// dirtySource is a serve-dirty module: fill writes a heap buffer of n
// longs, and stale reads a buffer after freeing it — a use-after-free
// the hardened allocator's retagging turns into an MTE tag mismatch.
func dirtySource(k int64) string {
	return fmt.Sprintf(`
extern char* malloc(long n);
extern void free(char* p);
long fill(long n, long seed) {
    long* a = (long*)malloc(n * 8);
    for (long i = 0; i < n; i++) { a[i] = seed + i * %[1]d; }
    long s = 0;
    for (long i = 0; i < n; i++) { s = s + a[i]; }
    free((char*)a);
    return s;
}
long stale(long n) {
    long* a = (long*)malloc(n * 8);
    a[0] = n;
    free((char*)a);
    return a[0];
}
`, k)
}

// Operation kinds of the serve workloads (index into serveKinds).
const (
	kindAdd = iota
	kindMix
	kindLoop
	kindFill
	kindStale
)

// serveKinds names each kind's guest function.
var serveKinds = []string{
	kindAdd:   "add",
	kindMix:   "mix",
	kindLoop:  "loop",
	kindFill:  "fill",
	kindStale: "stale",
}

// serveRequest is one generated invocation and its expected outcome:
// the value the guest must return, or (trap) a 422 guest_trap with an
// MTE tag mismatch.
type serveRequest struct {
	tenant, module int // module indexes the server's module table
	kind           int
	args           []uint64
	want           uint64
	trap           bool
}

// genServeRequests draws one client's request ring. The same (seed,
// client, dirty) always yields the same sequence.
func genServeRequests(seed uint64, client int, dirty bool) []serveRequest {
	rng := rand.New(rand.NewPCG(seed, uint64(client)+1))
	out := make([]serveRequest, ringSize)
	for i := range out {
		t := rng.IntN(tenants)
		m := t*modulesPerTenant + rng.IntN(modulesPerTenant)
		k := moduleConst(m)
		r := serveRequest{tenant: t, module: m}
		if !dirty {
			r.kind = kindAdd + rng.IntN(3)
			switch r.kind {
			case kindAdd:
				a, b := rng.Int64N(1_000_000), rng.Int64N(1_000_000)
				r.args, r.want = []uint64{uint64(a), uint64(b)}, uint64(a+b+k)
			case kindMix:
				a, b := rng.Int64N(1_000_000), rng.Int64N(1_000_000)
				r.args, r.want = []uint64{uint64(a), uint64(b)}, uint64((a*k+b)^(a>>3))
			case kindLoop:
				n := 8 + rng.Int64N(57)
				r.args, r.want = []uint64{uint64(n)}, uint64(wantLoop(n, k))
			}
		} else if rng.IntN(uafOneIn) == 0 {
			r.kind, r.trap = kindStale, true
			r.args = []uint64{uint64(1 + rng.Int64N(64))}
		} else {
			n, s := 16+rng.Int64N(241), rng.Int64N(1_000_000)
			r.kind = kindFill
			r.args, r.want = []uint64{uint64(n), uint64(s)}, uint64(wantFill(n, s, k))
		}
		out[i] = r
	}
	return out
}

func wantLoop(n, k int64) int64 {
	var s int64
	for i := int64(0); i < n; i++ {
		s = s + ((i * k) ^ s)
	}
	return s
}

func wantFill(n, seed, k int64) int64 {
	var s int64
	for i := int64(0); i < n; i++ {
		s += seed + i*k
	}
	return s
}

// kernelOrder is the kernel workload's call sequence: rounds, each a
// seeded permutation of every kernel, so each kernel is called equally
// often whatever the seed.
func kernelOrder(seed uint64, rounds int) []int { return permutations(seed, 0x6b65726e, rounds) }

// coldOrder is the cold workload's sequence of kernels to upload, drawn
// the same way from its own stream.
func coldOrder(seed uint64, rounds int) []int { return permutations(seed, 0x636f6c64, rounds) }

func permutations(seed, stream uint64, rounds int) []int {
	rng := rand.New(rand.NewPCG(seed, stream))
	n := len(polybench.Kernels())
	out := make([]int, 0, rounds*n)
	for r := 0; r < rounds; r++ {
		out = append(out, rng.Perm(n)...)
	}
	return out
}
