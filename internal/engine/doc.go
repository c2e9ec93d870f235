// Package engine provides the process-level machinery that amortizes
// Cage's per-instance hardening costs across many invocations: a keyed
// compiled-module cache and a concurrent instance pool.
//
// The paper prices two one-time costs that dominate short-lived
// executions: compiling and validating the module, and tagging the
// whole linear memory at instantiation (§7.2, Table 4/Fig. 16). A
// service handling many requests per module pays both once per request
// if it naively re-instantiates. This package lets an embedder pay them
// once per process instead:
//
//   - Cache deduplicates compilation: identical (content hash, config)
//     pairs share one validated module, with singleflight semantics so
//     concurrent first requests compile once.
//   - Pool recycles instances: a checkout/checkin protocol over
//     resettable instances replaces full re-instantiation with a reset
//     (re-zero memory, re-tag, re-seed), and bounds live instances to
//     the §7.4 sandbox-tag budget, queueing excess checkouts until an
//     instance is returned or the checkout's context ends.
//   - SnapshotCache memoizes frozen post-initialization images per
//     (module hash, config, init), so start/init execution and
//     whole-memory tagging run once and every later instance is a
//     fork (restore) of the image rather than a rebuild.
//
// The package is deliberately ignorant of wasm: Cache is generic over
// the cached value and Pool works against the small Resetter interface,
// so the cage facade can pool fully-linked instances (interpreter
// instance + hardened allocator) while tests can pool anything.
//
// # Concurrency model
//
// The package is engineered so the steady-state request path — cache
// hit, instance checkout, instance checkin — acquires no mutex and
// performs no allocation. Mutexes exist only on the cold edges (build,
// spawn, exhaustion, teardown).
//
// Caches are hash-sharded into 16 segments by the first key byte. Each
// shard publishes its entry table as an immutable map behind an
// atomic.Pointer: a lookup loads the pointer and reads the map with no
// lock and no CAS, so hits scale with cores and never contend with
// each other. Mutations (first build of a key, eviction of a failed
// build) take the shard mutex, clone the map, and republish — a
// read-copy-update discipline whose cost is charged to the miss, which
// is about to run a compile anyway. Singleflight is preserved per
// entry: the first goroutine to claim a key builds it while losers
// block on the entry's done channel, and failed builds are removed so
// a later lookup retries.
//
// The Pool's idle set is a fixed-capacity Treiber stack (see lifo):
// checkout pops and checkin pushes with at most two compare-and-swaps
// each, no locks, and no allocation — slots are preallocated and
// recycled through an internal free list, with ABA ruled out by a
// 32-bit version tag packed beside the slot index in each list head.
// The mutex-and-condvar path from earlier PRs survives underneath as
// the slow path and keeps its exact semantics: spawns (which may block
// on the shared §7.4 sandbox-tag budget) reserve cap slots under the
// pool mutex, exhausted checkouts queue on a broadcast channel and
// abandon cleanly when their context ends, and Close/Reclaim drain
// both the fast stack and the slow idle list. The lock-free checkin
// and the queued checkout rendezvous through an atomic waiter count:
// a waiter registers, re-polls the fast stack once, then sleeps; a
// checkin pushes, then broadcasts only if it observes a registered
// waiter. Sequential consistency of Go atomics makes one of the two
// observations land: either the waiter's re-poll sees the push, or
// the checkin sees the waiter and wakes it.
//
// Counters (hits, misses, spawns, recycles, discards, live, idle) are
// plain atomics throughout, so Stats and StatsFor never touch a
// hot-path mutex — a metrics scraper cannot stall a checkout.
package engine
