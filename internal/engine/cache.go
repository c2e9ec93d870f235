package engine

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

// Key identifies a cached artifact: a content hash plus a variant string
// encoding everything else that influences the build (the Table 3
// configuration, the ABI, the toolchain revision...).
type Key struct {
	Hash    [sha256.Size]byte
	Variant string
}

// KeyOf hashes content and pairs it with a variant.
func KeyOf(content []byte, variant string) Key {
	return Key{Hash: sha256.Sum256(content), Variant: variant}
}

// KeyOfString is KeyOf for string content (e.g. MiniC source).
func KeyOfString(content, variant string) Key {
	return Key{Hash: sha256.Sum256([]byte(content)), Variant: variant}
}

// CacheStats is a point-in-time cache counter snapshot.
type CacheStats struct {
	Hits    uint64 // lookups served from (or joined onto) an entry
	Misses  uint64 // lookups that ran the build function
	Entries int    // values currently cached
}

// cacheEntry is a singleflight slot: the first goroutine to claim a key
// builds; everyone else blocks on done.
type cacheEntry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// cacheShards is the cache's shard count. Keys are
// content hashes, so the first hash byte is uniformly distributed and a
// mask suffices; 16 shards keeps clone-on-write misses cheap while
// spreading writer contention far past any realistic core count for
// the handful of distinct variants a server compiles.
const cacheShards = 16

// cacheShard is one hash-sharded segment. Lookups are lock-free: the
// entry table is an immutable map published through snap, and mutators
// clone-and-republish it under mu (the mutex orders writers only —
// readers never take it).
type cacheShard[V any] struct {
	snap   atomic.Pointer[map[Key]*cacheEntry[V]]
	hits   atomic.Uint64
	misses atomic.Uint64
	mu     sync.Mutex
}

// lookup is the lock-free read path.
func (sh *cacheShard[V]) lookup(key Key) (*cacheEntry[V], bool) {
	if m := sh.snap.Load(); m != nil {
		e, ok := (*m)[key]
		return e, ok
	}
	return nil, false
}

// publishLocked clones the current table, applies one insert (e != nil)
// or delete (e == nil), and republishes. Caller holds sh.mu.
func (sh *cacheShard[V]) publishLocked(key Key, e *cacheEntry[V]) {
	old := sh.snap.Load()
	n := 1
	if old != nil {
		n += len(*old)
	}
	next := make(map[Key]*cacheEntry[V], n)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	if e != nil {
		next[key] = e
	} else {
		delete(next, key)
	}
	sh.snap.Store(&next)
}

// Cache is a concurrency-safe build cache with singleflight semantics:
// for each key the build function runs at most once at a time, losers
// wait for the winner's result, and failed builds are not cached (a
// later lookup retries).
//
// The hot path — a lookup that hits — is lock-free: it loads a shard's
// published map pointer and reads it, so concurrent hits on any mix of
// keys never serialize. See the package documentation for the full
// concurrency model. The zero value is ready to use.
type Cache[V any] struct {
	shards [cacheShards]cacheShard[V]
}

// GetOrBuild returns the cached value for key, building it with build on
// first use. Concurrent callers of the same key share one build.
func (c *Cache[V]) GetOrBuild(key Key, build func() (V, error)) (V, error) {
	sh := &c.shards[key.Hash[0]&(cacheShards-1)]
	if e, ok := sh.lookup(key); ok {
		sh.hits.Add(1)
		<-e.done
		return e.val, e.err
	}
	return sh.getOrBuildSlow(key, build)
}

// getOrBuildSlow is the miss path: re-check under the shard mutex (the
// lock-free lookup may have raced another miss), claim the key with a
// singleflight entry, build outside the lock, and evict on failure.
func (sh *cacheShard[V]) getOrBuildSlow(key Key, build func() (V, error)) (V, error) {
	sh.mu.Lock()
	if e, ok := sh.lookup(key); ok {
		sh.hits.Add(1)
		sh.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	e := &cacheEntry[V]{done: make(chan struct{})}
	sh.publishLocked(key, e)
	sh.misses.Add(1)
	sh.mu.Unlock()

	e.val, e.err = build()
	close(e.done)
	if e.err != nil {
		// Do not cache failures: the build may be retried (and an error
		// kept alive forever would pin its inputs).
		sh.mu.Lock()
		if cur, ok := sh.lookup(key); ok && cur == e {
			sh.publishLocked(key, nil)
		}
		sh.mu.Unlock()
	}
	return e.val, e.err
}

// Stats returns a snapshot of the cache counters. It takes no locks, so
// metrics scrapes never stall lookups.
func (c *Cache[V]) Stats() CacheStats {
	var s CacheStats
	for i := range c.shards {
		sh := &c.shards[i]
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		if m := sh.snap.Load(); m != nil {
			s.Entries += countDone(*m)
		}
	}
	return s
}

// countDone counts entries whose build completed successfully.
func countDone[V any](m map[Key]*cacheEntry[V]) int {
	n := 0
	for _, e := range m {
		select {
		case <-e.done:
			if e.err == nil {
				n++
			}
		default: // still building
		}
	}
	return n
}
