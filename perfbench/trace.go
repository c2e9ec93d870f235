package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"cage"
)

// layer names what a span times. Every span's self time — its duration
// minus the durations of its child spans — is charged to its layer's
// ledger entry.
type layer uint8

const (
	// layerOp is a root wrapper around one operation; its self time is
	// the glue no layer span covers.
	layerOp layer = iota
	// Serve-layer spans: the handler call of one request, and the four
	// steps of a cold operation.
	layerServeRequest
	layerServeNew
	layerServeUpload
	layerServeInvoke
	layerServeClose
	// layerReplay wraps Engine.WithInstanceContext; its children are
	// the checkout, the call and the checkin, so its self time is the
	// part of the round trip none of them covers.
	layerReplay
	layerCheckout
	layerCall
	layerCheckin
	// Cold-pipeline stages, replayed one module API at a time.
	layerParse
	layerAnalyze
	layerCodegen
	layerEncode
	layerLink
	layerLower
	layerProfile
	layerFuse
	layerInstantiate
	layerAlloc
	layerSnapshot
	numLayers
)

// layerMetric maps each layer to the ledger entry its self time feeds.
// Several serve spans share serve.self_us; the two wrappers feed
// unattributed_us.
var layerMetric = [numLayers]string{
	layerOp:           "unattributed_us",
	layerServeRequest: "serve.self_us",
	layerServeNew:     "serve.self_us",
	layerServeUpload:  "serve.self_us",
	layerServeInvoke:  "serve.self_us",
	layerServeClose:   "serve.self_us",
	layerReplay:       "unattributed_us",
	layerCheckout:     "engine.checkout_us",
	layerCall:         "exec.call_us",
	layerCheckin:      "engine.checkin_us",
	layerParse:        "minicc.parse_us",
	layerAnalyze:      "minicc.analyze_us",
	layerCodegen:      "codegen.compile_us",
	layerEncode:       "wasm.encode_us",
	layerLink:         "exec.link_us",
	layerLower:        "ir.lower_us",
	layerProfile:      "profile.id_us",
	layerFuse:         "fuse.fuse_us",
	layerInstantiate:  "exec.instantiate_us",
	layerAlloc:        "alloc.new_us",
	layerSnapshot:     "exec.snapshot_us",
}

// span is one timed interval. A child need not lie inside its parent in
// time: a replay span is the child of the request span it explains.
type span struct {
	layer      layer
	kind       int32 // operation kind of the operation the span belongs to
	parent     int32 // index of the parent span, -1 for a root
	start, end int64 // nanoseconds since the tracer's epoch
}

// tracer keeps one client's spans in memory until the run ends. It is
// used by one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
	kind  int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span under parent (-1 for a root) and returns its index.
func (t *tracer) open(l layer, parent int) int {
	t.spans = append(t.spans, span{layer: l, kind: t.kind, parent: int32(parent), start: t.now()})
	return len(t.spans) - 1
}

// close ends span i.
func (t *tracer) close(i int) { t.spans[i].end = t.now() }

// record adds a span whose bounds were taken by the caller.
func (t *tracer) record(l layer, parent int, start, end int64) int {
	t.spans = append(t.spans, span{layer: l, kind: t.kind, parent: int32(parent), start: start, end: end})
	return len(t.spans) - 1
}

// timed runs f inside a span and returns f's error.
func (t *tracer) timed(l layer, parent int, f func() error) error {
	i := t.open(l, parent)
	err := f()
	t.close(i)
	return err
}

// roundTrip is the outcome of a traced engine round trip.
type roundTrip struct {
	res      cage.Result
	callErr  error // the guest call's own error
	checkout int   // index of the engine.checkout span
}

// roundTrip calls fn on an instance of m checked out of eng through
// Engine.WithInstanceContext, recording under parent a wrapper span of
// layer wrapper with three children: engine.checkout (entry to the
// callback), exec.call (Instance.Call) and engine.checkin (callback
// return to WithInstanceContext return). Each bound is its own clock
// read, so the wrapper's self time is the round trip's uncovered rest.
func (t *tracer) roundTrip(eng *cage.Engine, m *cage.Module, wrapper layer, parent int, fn string, args []uint64) (roundTrip, error) {
	ctx := context.Background()
	var rt roundTrip
	var t1, t2, t3, t4 int64
	t0 := t.now()
	err := eng.WithInstanceContext(ctx, m, func(inst *cage.Instance) error {
		t1 = t.now()
		t2 = t.now()
		rt.res, rt.callErr = inst.Call(ctx, fn, args)
		t3 = t.now()
		t4 = t.now()
		return nil
	})
	t5 := t.now()
	w := t.record(wrapper, parent, t0, t5)
	rt.checkout = t.record(layerCheckout, w, t0, t1)
	t.record(layerCall, w, t2, t3)
	t.record(layerCheckin, w, t4, t5)
	return rt, err
}

// ledger is the per-layer account of a traced run: the summed root
// durations (the traced total) and every layer's summed self time. By
// construction the self times add up to the total exactly. A replayed
// child can run longer than the span it explains (its own heap and
// cache state differ), so a parent's self time can come out negative.
type ledger struct {
	ops   int64
	total int64
	self  map[string]int64
	// roots holds each root's duration, byKind[layer][kind] each
	// span's duration, for percentiles and per-kind medians.
	roots  []time.Duration
	byKind map[layer][][]time.Duration
	kinds  int
}

func newLedger(kinds int) *ledger {
	return &ledger{self: make(map[string]int64), byKind: make(map[layer][][]time.Duration), kinds: kinds}
}

// add folds one tracer's spans into the ledger.
func (lg *ledger) add(t *tracer) {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		lg.self[layerMetric[s.layer]] += d - children[i]
		if s.parent < 0 {
			lg.ops++
			lg.total += d
			lg.roots = append(lg.roots, time.Duration(d))
		}
		per := lg.byKind[s.layer]
		if per == nil {
			per = make([][]time.Duration, lg.kinds)
			lg.byKind[s.layer] = per
		}
		per[s.kind] = append(per[s.kind], time.Duration(d))
	}
}

// durations returns every span duration of one layer, ascending.
func (lg *ledger) durations(l layer) []time.Duration {
	var all []time.Duration
	for _, d := range lg.byKind[l] {
		all = append(all, d...)
	}
	slices.Sort(all)
	return all
}

// meanUs is a layer's mean duration per span in microseconds.
func (lg *ledger) meanUs(l layer) float64 {
	d := lg.durations(l)
	if len(d) == 0 {
		return 0
	}
	var s time.Duration
	for _, x := range d {
		s += x
	}
	return us(s) / float64(len(d))
}

// check verifies that the self times add up to the traced total.
func (lg *ledger) check() error {
	var sum int64
	for _, v := range lg.self {
		sum += v
	}
	if sum != lg.total {
		return fmt.Errorf("ledger: layer self times sum to %dns, traced total is %dns", sum, lg.total)
	}
	if lg.ops == 0 {
		return fmt.Errorf("ledger: no traced operations")
	}
	return nil
}

// fill writes the ledger into the report: every layer's self time per
// operation into the ledger line, the traced total, and the tracing
// overhead against the untraced run's median latency.
func (lg *ledger) fill(rep *report, untracedP50 time.Duration) error {
	if err := lg.check(); err != nil {
		return err
	}
	ops := float64(lg.ops)
	for name, v := range lg.self {
		rep.detail[name] = float64(v) / 1e3 / ops
	}
	rep.detail["trace.total_us"] = float64(lg.total) / 1e3 / ops
	rep.detail["trace.ops"] = ops
	slices.Sort(lg.roots)
	tracedP50 := percentile(lg.roots, 0.5)
	overhead := 100 * (float64(tracedP50)/float64(untracedP50) - 1)
	rep.detail["trace.overhead_pct"] = overhead
	rep.set("trace.total_us", rep.detail["trace.total_us"], "us")
	rep.set("unattributed_us", rep.detail["unattributed_us"], "us")
	rep.set("trace.overhead_pct", overhead, "%")
	return nil
}
