package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Resetter is the unit a Pool recycles. Reset must return the value to
// its initial state (seed drives any fresh randomness the new lifetime
// needs); Close releases resources held against shared budgets (e.g.
// the instance's sandbox tag).
type Resetter interface {
	Reset(seed uint64) error
	Close() error
}

// PoolStats is a point-in-time pool counter snapshot.
type PoolStats struct {
	Spawned   uint64 // instances created
	Recycled  uint64 // successful checkins (reset ok)
	Discarded uint64 // instances dropped because reset failed
	Idle      int    // instances ready for checkout
	Live      int    // spawned minus closed (checked out + idle)
}

// Pool recycles instances of one compiled module across invocations.
//
// Checkout (GetContext) prefers an idle instance; otherwise it spawns
// one, unless doing so would exceed the pool's live cap — then it
// queues until a checkin frees one or the context ends, so a caller
// holding a deadline can abandon a contended checkout without leaking
// anything. Checkin (Put) resets the instance before making it visible
// again, so state poisoned by a trapped execution never leaks into the
// next checkout; instances whose reset fails are closed and discarded.
//
// The uncontended checkout/checkin pair is lock-free: idle instances
// live on a Treiber stack (see lifo) and Get/Put exchange them in at
// most two CAS operations each, with the mutex-and-condvar path below
// reserved for spawning, cap exhaustion, and teardown. See the package
// documentation for the full concurrency model.
//
// All methods are safe for concurrent use.
type Pool struct {
	spawn func(ctx context.Context) (Resetter, error)

	// NextSeed supplies the reset seed for each checkin. Pools sharing a
	// process (one PAC key) must share one seed source so no two
	// instance lifetimes — across any pool — derive the same PAC
	// modifier (§6.3). Nil falls back to a pool-private counter, which
	// is only safe for a process with a single pool.
	NextSeed func() uint64

	// fast is the lock-free idle stack.
	fast *lifo

	// waiters counts checkouts registered on the condvar and not yet
	// woken. A lock-free Put broadcasts only when it observes one, so
	// the empty-queue steady state pays an atomic load, not a lock.
	waiters atomic.Int32

	// closedHint mirrors closed for the lock-free paths; authoritative
	// state is still closed, under mu.
	closedHint atomic.Bool

	// Monotonic counters and gauges, atomic so Stats never touches mu.
	// liveN and idleSlowN are written only under mu (the fast stack
	// keeps its own size); spawned/recycled/discarded are written
	// wherever the event happens.
	spawned   atomic.Uint64
	recycled  atomic.Uint64
	discarded atomic.Uint64
	liveN     atomic.Int64
	idleSlowN atomic.Int64

	seed atomic.Uint64 // pool-private seed counter (NextSeed == nil)

	mu       sync.Mutex
	idle     []Resetter // slow-path idle list: fast-stack overflow
	spawning int        // spawn attempts in flight (reserve cap slots)
	max      int
	closed   bool
	// wake is a channel-shaped broadcast condition variable: it is
	// closed (and lazily replaced) whenever a checkout might newly
	// succeed — checkin, discard, reclaim, close, failed spawn — so
	// queued GetContext calls can select on it against ctx.Done().
	// Broadcast (vs. the old cond.Signal) wakes every waiter per event;
	// that is a deliberate tradeoff for cancellability, matching the
	// core.SandboxAllocator condvar, and queue depth is bounded by the
	// caller's concurrency (at most the §7.4 budget's overflow).
	wake chan struct{}
}

// lifoDefaultCap sizes the fast stack when the pool is uncapped (or
// absurdly capped): enough idle slots for any realistic core count,
// with overflow spilling harmlessly to the mutex-guarded idle list.
const lifoDefaultCap = 256

// NewPool creates a pool over spawn. The spawn function receives the
// checkout's context so a queued spawn (e.g. one waiting on a shared
// sandbox-tag budget) can be abandoned with it. max bounds live
// instances (checked out plus idle); 0 means unlimited. Embedders
// running under a sandbox-tag budget (§7.4) should pass the budget as
// max so checkouts queue instead of failing with ErrSandboxesExhausted.
func NewPool(max int, spawn func(ctx context.Context) (Resetter, error)) *Pool {
	p := &Pool{spawn: spawn, max: max}
	p.seed.Store(0x6361_6765) // "cage"
	c := max
	if c <= 0 || c > 4096 {
		c = lifoDefaultCap
	}
	p.fast = newLifo(c)
	return p
}

// waitLocked returns the channel closed at the next wakeLocked.
func (p *Pool) waitLocked() chan struct{} {
	if p.wake == nil {
		p.wake = make(chan struct{})
	}
	return p.wake
}

// wakeLocked wakes every queued checkout (they re-examine the pool).
func (p *Pool) wakeLocked() {
	if p.wake != nil {
		close(p.wake)
		p.wake = nil
	}
}

// nextSeed draws the next reset seed from NextSeed or the private
// counter.
func (p *Pool) nextSeed() uint64 {
	if p.NextSeed != nil {
		return p.NextSeed()
	}
	return p.seed.Add(1)
}

// ErrPoolClosed is returned by Get after Close.
var ErrPoolClosed = fmt.Errorf("engine: pool is closed")

// Get checks an instance out of the pool, spawning or blocking as the
// cap dictates. It is GetContext with a background context.
func (p *Pool) Get() (Resetter, error) {
	return p.GetContext(context.Background())
}

// GetContext checks an instance out of the pool, spawning or queueing
// as the cap dictates. A queued checkout — whether blocked on the live
// cap or inside a spawn waiting on a shared budget — is abandoned
// cleanly when ctx ends: GetContext returns ctx.Err() and no instance
// or budget reservation leaks.
//
// The hit path (an idle instance is available) is lock-free and
// allocation-free: one pop off the Treiber stack, at most two CAS ops.
func (p *Pool) GetContext(ctx context.Context) (Resetter, error) {
	if !p.closedHint.Load() && ctx.Err() == nil {
		if inst, ok := p.fast.pop(); ok {
			return inst, nil
		}
	}
	return p.getSlow(ctx)
}

// getSlow is the spawn/queue path, entered when the fast stack is
// empty. It preserves the pre-fast-path semantics exactly: cap slots
// are reserved across spawns, spawn failures with live instances wait
// for a checkin instead of failing, and queued checkouts abandon on
// ctx. The fast stack is re-polled at every turn of the loop (and once
// after each condvar registration — see sleepLocked) so a lock-free
// checkin cannot strand a queued waiter.
func (p *Pool) getSlow(ctx context.Context) (Resetter, error) {
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			return nil, ErrPoolClosed
		}
		if err := ctx.Err(); err != nil {
			p.mu.Unlock()
			return nil, err
		}
		if inst, ok := p.fast.pop(); ok {
			p.mu.Unlock()
			return inst, nil
		}
		if n := len(p.idle); n > 0 {
			inst := p.idle[n-1]
			p.idle = p.idle[:n-1]
			p.idleSlowN.Store(int64(len(p.idle)))
			p.mu.Unlock()
			return inst, nil
		}
		if p.max == 0 || int(p.liveN.Load())+p.spawning < p.max {
			p.spawning++
			p.mu.Unlock()
			inst, err := p.spawn(ctx)
			p.mu.Lock()
			p.spawning--
			if err != nil {
				// The cap slot this spawn reserved is free again; let
				// blocked waiters retry.
				p.wakeLocked()
				if ctx.Err() != nil {
					// The spawn was abandoned by our own context; report
					// that, not whatever wrapped error it surfaced as.
					p.mu.Unlock()
					return nil, ctx.Err()
				}
				if p.liveN.Load() > 0 && !p.closed {
					// Spawning can fail on a shared budget the cap does
					// not see (several pools over one sandbox
					// allocator). This pool's live instances will be
					// checked in eventually; wait for one instead of
					// failing the request — unless one arrived while we
					// were spawning.
					if inst, ok := p.fast.pop(); ok {
						p.mu.Unlock()
						return inst, nil
					}
					if len(p.idle) == 0 {
						if inst, ok := p.sleepLocked(ctx); ok {
							return inst, nil
						}
						p.mu.Lock()
					}
					continue
				}
				p.mu.Unlock()
				return nil, err
			}
			p.liveN.Add(1)
			p.spawned.Add(1)
			p.mu.Unlock()
			return inst, nil
		}
		if inst, ok := p.sleepLocked(ctx); ok {
			return inst, nil
		}
		p.mu.Lock()
	}
}

// sleepLocked parks the checkout until the next pool event or ctx end.
// Called with mu held; releases it. The waiter registers (obtains the
// wake channel, bumps waiters), then re-polls the fast stack once
// before sleeping: a lock-free Put either lands its push before that
// re-poll (we take the instance) or runs its waiters check after our
// registration (it broadcasts) — sequential consistency of the atomics
// leaves no third ordering, so no wakeup is lost. On a hit the
// instance is returned with mu released; otherwise the caller must
// re-lock and re-examine the pool.
func (p *Pool) sleepLocked(ctx context.Context) (Resetter, bool) {
	ch := p.waitLocked()
	p.waiters.Add(1)
	p.mu.Unlock()
	if inst, ok := p.fast.pop(); ok {
		p.waiters.Add(-1)
		return inst, true
	}
	select {
	case <-ch:
	case <-ctx.Done():
	}
	p.waiters.Add(-1)
	return nil, false
}

// Put checks an instance back in. The instance is reset first; a reset
// failure closes and discards it (freeing its slot under the cap).
//
// When the reset succeeds and the pool is open, checkin is lock-free:
// one push onto the Treiber stack, at most two CAS ops, no allocation.
func (p *Pool) Put(inst Resetter) {
	err := inst.Reset(p.nextSeed())
	if err == nil && !p.closedHint.Load() {
		if p.fast.push(inst) {
			p.recycled.Add(1)
			if p.closedHint.Load() {
				// Close raced our push; drain so nothing lingers live
				// in a closed pool.
				p.drainFast()
			}
			if p.waiters.Load() > 0 {
				p.mu.Lock()
				p.wakeLocked()
				p.mu.Unlock()
			}
			return
		}
	}
	p.putSlow(inst, err)
}

// putSlow handles reset failures, closed pools, and fast-stack
// overflow under the pool mutex.
func (p *Pool) putSlow(inst Resetter, err error) {
	p.mu.Lock()
	if err != nil || p.closed {
		p.liveN.Add(-1)
		if err != nil {
			p.discarded.Add(1)
		}
		p.wakeLocked()
		p.mu.Unlock()
		inst.Close()
		return
	}
	p.idle = append(p.idle, inst)
	p.idleSlowN.Store(int64(len(p.idle)))
	p.recycled.Add(1)
	p.wakeLocked()
	p.mu.Unlock()
}

// drainFast closes everything on the fast stack; only called once the
// pool is closed, when no checkout can legitimately race the pops.
func (p *Pool) drainFast() {
	for {
		inst, ok := p.fast.pop()
		if !ok {
			return
		}
		p.mu.Lock()
		p.liveN.Add(-1)
		p.wakeLocked()
		p.mu.Unlock()
		inst.Close()
	}
}

// ReclaimIdle closes up to n idle instances, freeing whatever shared
// budget they hold (sandbox tags, memory). Returns how many were
// reclaimed. Used by engines whose pools compete for one tag budget: a
// pool that cannot spawn may reclaim a sibling's idle instance and
// retry.
func (p *Pool) ReclaimIdle(n int) int {
	p.mu.Lock()
	k := n
	if k > len(p.idle) {
		k = len(p.idle)
	}
	evicted := make([]Resetter, 0, k)
	evicted = append(evicted, p.idle[len(p.idle)-k:]...)
	p.idle = p.idle[:len(p.idle)-k]
	p.idleSlowN.Store(int64(len(p.idle)))
	for len(evicted) < n {
		inst, ok := p.fast.pop()
		if !ok {
			break
		}
		evicted = append(evicted, inst)
	}
	p.liveN.Add(-int64(len(evicted)))
	if len(evicted) > 0 {
		p.wakeLocked() // cap slots freed
	}
	p.mu.Unlock()
	for _, inst := range evicted {
		inst.Close()
	}
	return len(evicted)
}

// Discard removes a checked-out instance from the pool without
// recycling it (e.g. after an invocation error the embedder considers
// fatal for the instance).
func (p *Pool) Discard(inst Resetter) {
	p.mu.Lock()
	p.liveN.Add(-1)
	p.discarded.Add(1)
	p.wakeLocked()
	p.mu.Unlock()
	inst.Close()
}

// Close retires all idle instances and fails future checkouts.
// Instances currently checked out are closed as they come back.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.closedHint.Store(true)
	idle := p.idle
	p.idle = nil
	p.idleSlowN.Store(0)
	for {
		inst, ok := p.fast.pop()
		if !ok {
			break
		}
		idle = append(idle, inst)
	}
	p.liveN.Add(-int64(len(idle)))
	p.wakeLocked()
	p.mu.Unlock()
	for _, inst := range idle {
		inst.Close()
	}
}

// Stats returns a snapshot of the pool counters. It reads only atomics
// — never the pool mutex — so scraping cannot stall checkouts.
func (p *Pool) Stats() PoolStats {
	idle := p.idleSlowN.Load() + int64(p.fast.size.Load())
	return PoolStats{
		Spawned:   p.spawned.Load(),
		Recycled:  p.recycled.Load(),
		Discarded: p.discarded.Load(),
		Idle:      int(idle),
		Live:      int(p.liveN.Load()),
	}
}

// PoolSet lazily manages one Pool per key (e.g. per compiled module).
// Lookup of an existing pool is lock-free (the key→pool table is an
// immutable map republished on insert); only pool creation takes the
// set mutex. The zero value is ready to use.
type PoolSet struct {
	// NextSeed, when non-nil, is installed on every created pool so all
	// pools of one process share a seed source (see Pool.NextSeed).
	NextSeed func() uint64

	// snap is the published key→pool table; mutations clone under mu
	// and republish.
	snap atomic.Pointer[map[any]*Pool]

	mu      sync.Mutex
	limit   int  // live-instance cap applied to pools as they are created
	started bool // a pool has been built; limit is frozen
	closed  bool
}

// ErrSetStarted is returned by SetLimit once a pool exists: that pool
// was built under the old limit and would never observe a new one.
var ErrSetStarted = fmt.Errorf("engine: pool set already built a pool; set the limit before first use")

// SetLimit sets the live-instance cap applied to pools as they are
// created (0 = unlimited). The check and the mutation share the set's
// lock with pool creation, so a SetLimit racing the first checkout
// either wins (the pool sees the new limit) or fails with
// ErrSetStarted — it can never return success while a pool built under
// the old limit ignores it.
func (s *PoolSet) SetLimit(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return ErrSetStarted
	}
	s.limit = n
	return nil
}

// Lookup returns the pool for key if one has been created, without
// locking. Callers on the hot path use it to skip For's spawn-closure
// setup entirely once the pool exists.
func (s *PoolSet) Lookup(key any) (*Pool, bool) {
	if m := s.snap.Load(); m != nil {
		p, ok := (*m)[key]
		return p, ok
	}
	return nil, false
}

// For returns the pool for key, creating it with spawn on first use.
func (s *PoolSet) For(key any, spawn func(ctx context.Context) (Resetter, error)) *Pool {
	if p, ok := s.Lookup(key); ok {
		return p
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.started = true
	if m := s.snap.Load(); m != nil {
		if p, ok := (*m)[key]; ok {
			return p
		}
	}
	p := NewPool(s.limit, spawn)
	p.NextSeed = s.NextSeed
	if s.closed {
		// A closed set must not resurrect: hand out a pool whose
		// Get fails with ErrPoolClosed instead of silently leaking
		// fresh instances past the one Close that already ran.
		p.closed = true
		p.closedHint.Store(true)
	}
	old := s.snap.Load()
	n := 1
	if old != nil {
		n += len(*old)
	}
	next := make(map[any]*Pool, n)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	next[key] = p
	s.snap.Store(&next)
	return p
}

// ReclaimIdle closes up to n idle instances across the set's pools,
// returning how many were reclaimed. See Pool.ReclaimIdle.
func (s *PoolSet) ReclaimIdle(n int) int {
	m := s.snap.Load()
	if m == nil {
		return 0
	}
	freed := 0
	for _, p := range *m {
		if freed >= n {
			break
		}
		freed += p.ReclaimIdle(n - freed)
	}
	return freed
}

// StatsFor snapshots the pool for key alone; ok is false when no pool
// has been created for it yet (no checkout has happened). Services
// exporting per-module occupancy (cage-serve's /stats) use this to
// attribute live instances, recycles, and discards to one module
// instead of the set-wide sum. Lock-free, like Pool.Stats.
func (s *PoolSet) StatsFor(key any) (stats PoolStats, ok bool) {
	p, ok := s.Lookup(key)
	if !ok {
		return PoolStats{}, false
	}
	return p.Stats(), true
}

// Stats sums the counters of every pool in the set without locking.
func (s *PoolSet) Stats() PoolStats {
	m := s.snap.Load()
	if m == nil {
		return PoolStats{}
	}
	var sum PoolStats
	for _, p := range *m {
		ps := p.Stats()
		sum.Spawned += ps.Spawned
		sum.Recycled += ps.Recycled
		sum.Discarded += ps.Discarded
		sum.Idle += ps.Idle
		sum.Live += ps.Live
	}
	return sum
}

// Close closes every pool in the set; later For calls yield pools that
// fail checkout with ErrPoolClosed.
func (s *PoolSet) Close() {
	s.mu.Lock()
	m := s.snap.Load()
	s.snap.Store(nil)
	s.closed = true
	s.mu.Unlock()
	if m == nil {
		return
	}
	for _, p := range *m {
		p.Close()
	}
}
