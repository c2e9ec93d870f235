package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"cage"
	"cage/internal/bench"
)

// Scaling benchmark: the serve hot path across GOMAXPROCS ×
// concurrency. Unlike the saturation sweep, the handler is driven
// in-process — no listener, no TCP round-trip — because the thing under
// test is the serve/engine path itself (parse, lookup, admission,
// checkout, call, encode), and a loopback RTT of tens of microseconds
// would flatten it.

// scalingSource is the benchmark guest: a call-overhead microworkload.
// The guest body is deliberately trivial so the serve path, not guest
// execution, dominates each request.
const scalingSource = `long add(long a, long b) { return a + b; }`

// MeasureScaling sweeps GOMAXPROCS × concurrency and reports
// throughput, latency percentiles, mutex-wait and allocation deltas per
// point. quick selects the CI smoke shape.
func MeasureScaling(quick bool) (*bench.ScalingRecord, error) {
	gms := []int{1, 2, 4}
	perClient := 300
	if quick {
		gms = []int{1, 2}
		perClient = 40
	}
	rec := &bench.ScalingRecord{Workload: "add", N: 2, RequestsPerClient: perClient}

	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)

	cfg, err := cage.ConfigByName("sandbox")
	if err != nil {
		return nil, err
	}
	srv, err := New(Options{Config: cfg, ConfigName: "sandbox"})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	body, err := scalingWorkload(srv)
	if err != nil {
		return nil, err
	}
	for _, g := range gms {
		runtime.GOMAXPROCS(g)
		for _, conc := range scalingLevels(g, quick) {
			p := driveScalingPoint(srv, body, conc, perClient)
			p.GOMAXPROCS = g
			rec.Points = append(rec.Points, p)
		}
	}
	return rec, nil
}

// scalingLevels picks the concurrency sweep for one GOMAXPROCS width:
// under-subscribed, matched, and the 2× / 4× over-subscription where
// checkout contention and lock convoys live.
func scalingLevels(g int, quick bool) []int {
	levels := []int{1, g, 2 * g, 4 * g}
	if quick {
		levels = []int{1, 2 * g}
	}
	sort.Ints(levels)
	out := levels[:1]
	for _, c := range levels[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// scalingWorkload registers the guest through the real upload handler
// and returns the invoke body the workers will replay.
func scalingWorkload(srv *Server) ([]byte, error) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/modules", nil)
	req.Body = &replayBody{data: []byte(scalingSource)}
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated && rec.Code != http.StatusOK {
		return nil, fmt.Errorf("serve: registering scaling workload: status %d: %s", rec.Code, rec.Body.String())
	}
	var up UploadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil {
		return nil, err
	}
	return []byte(fmt.Sprintf(`{"module":%q,"function":"add","args":[3,4]}`, up.Module)), nil
}

// replayBody is a rewindable no-op-close request body, so one request
// value can be replayed without per-iteration reader allocations.
type replayBody struct {
	data []byte
	off  int
}

func (b *replayBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *replayBody) Close() error { return nil }
func (b *replayBody) rewind()      { b.off = 0 }

// nullResponseWriter records the status code and discards the body.
type nullResponseWriter struct {
	h    http.Header
	code int
}

func (w *nullResponseWriter) Header() http.Header { return w.h }
func (w *nullResponseWriter) WriteHeader(c int)   { w.code = c }
func (w *nullResponseWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}

// scalingWorker is one client goroutine's reusable request state.
type scalingWorker struct {
	srv  *Server
	req  *http.Request
	body *replayBody
	w    nullResponseWriter
	errs int
}

func newScalingWorker(srv *Server, body []byte) *scalingWorker {
	sw := &scalingWorker{srv: srv, body: &replayBody{data: body}}
	sw.req = httptest.NewRequest(http.MethodPost, "/v1/invoke", nil)
	sw.req.Header.Set(TenantHeader, "bench")
	sw.req.Body = sw.body
	sw.w.h = make(http.Header)
	return sw
}

// run replays n requests, recording per-request latency into lat (which
// may be nil for warmup).
func (sw *scalingWorker) run(n int, lat []time.Duration) {
	for i := 0; i < n; i++ {
		sw.body.rewind()
		sw.w.code = 0
		t0 := time.Now()
		sw.srv.handleInvoke(&sw.w, sw.req)
		d := time.Since(t0)
		if lat != nil {
			lat[i] = d
		}
		if sw.w.code != http.StatusOK {
			sw.errs++
		}
	}
}

// serveMetrics is the pair of runtime/metrics samples each point deltas.
type serveMetrics struct {
	mutexWaitNs int64
	heapAllocs  uint64
}

func readServeMetrics() serveMetrics {
	samples := []metrics.Sample{
		{Name: "/sync/mutex/wait/total:seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(samples)
	var m serveMetrics
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		m.mutexWaitNs = int64(samples[0].Value.Float64() * 1e9)
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		m.heapAllocs = samples[1].Value.Uint64()
	}
	return m
}

// driveScalingPoint measures one (concurrency) cell against a live
// server: conc workers each replay perClient requests after a short
// unmeasured warmup that spawns the pool up to the offered load.
func driveScalingPoint(srv *Server, body []byte, conc, perClient int) bench.ScalingPoint {
	workers := make([]*scalingWorker, conc)
	for i := range workers {
		workers[i] = newScalingWorker(srv, body)
	}
	var wg sync.WaitGroup
	for _, sw := range workers {
		wg.Add(1)
		go func(sw *scalingWorker) {
			defer wg.Done()
			sw.run(2, nil)
		}(sw)
	}
	wg.Wait()
	for _, sw := range workers {
		sw.errs = 0
	}

	total := conc * perClient
	latencies := make([]time.Duration, total)
	before := readServeMetrics()
	t0 := time.Now()
	for i, sw := range workers {
		wg.Add(1)
		go func(i int, sw *scalingWorker) {
			defer wg.Done()
			sw.run(perClient, latencies[i*perClient:(i+1)*perClient])
		}(i, sw)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	after := readServeMetrics()

	errs := 0
	for _, sw := range workers {
		errs += sw.errs
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	ok := total - errs
	p := bench.ScalingPoint{
		Concurrency: conc,
		Requests:    total,
		Errors:      errs,
		P50Ns:       percentile(latencies, 0.50).Nanoseconds(),
		P99Ns:       percentile(latencies, 0.99).Nanoseconds(),
		MutexWaitNs: after.mutexWaitNs - before.mutexWaitNs,
		AllocsPerOp: float64(after.heapAllocs-before.heapAllocs) / float64(total),
	}
	if elapsed > 0 {
		p.ThroughputRPS = float64(ok) / elapsed.Seconds()
	}
	return p
}
