package bench

// Scaling record: the multicore scale-out benchmark's JSON shape. The
// measurement lives in internal/serve (serve.MeasureScaling) — it
// drives the serve handler in-process (no network round-trip, so the
// numbers price the serve/engine hot path itself rather than loopback
// TCP): sharded lock-free caches, Treiber-stack checkout, zero-alloc
// handler. BENCH_scaling.json additionally carries a "locked" arm and a
// fast÷locked speedup per cell, recorded at commit 5b0e00e against the
// mutex-guarded caches, condvar-only pool, and allocating handler that
// path replaced; that arm's code has since been removed, so new
// records carry the one path only.

// ScalingPoint is one (GOMAXPROCS, concurrency) measurement.
type ScalingPoint struct {
	// GOMAXPROCS is the scheduler width the point ran under.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Concurrency is the number of in-flight client goroutines.
	Concurrency int `json:"concurrency"`
	// Requests is how many invocations the point measured; Errors counts
	// failures (a healthy sweep stays inside quota, so this should be 0).
	Requests int `json:"requests"`
	Errors   int `json:"errors"`
	// P50Ns/P99Ns are request-latency percentiles, comparable within one
	// run of one machine only.
	P50Ns int64 `json:"p50_ns"`
	P99Ns int64 `json:"p99_ns"`
	// ThroughputRPS is successful requests per second.
	ThroughputRPS float64 `json:"throughput_rps"`
	// MutexWaitNs is the runtime/metrics /sync/mutex/wait/total delta
	// across the point — total goroutine-nanoseconds blocked on mutexes,
	// the direct witness that the fast path removed lock convoys.
	MutexWaitNs int64 `json:"mutex_wait_ns"`
	// AllocsPerOp is heap objects allocated per request
	// (/gc/heap/allocs:objects delta over requests).
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// ScalingRecord is the cage-loadgen JSON "scaling" record: the serve
// hot path across GOMAXPROCS × concurrency.
type ScalingRecord struct {
	// Workload names the benchmark guest; N is its problem size.
	Workload string `json:"workload"`
	N        int    `json:"n"`
	// RequestsPerClient is the per-concurrency-level request multiplier.
	RequestsPerClient int `json:"requests_per_client"`
	// Points holds every (gomaxprocs, concurrency) measurement in
	// sweep order.
	Points []ScalingPoint `json:"points"`
}
