package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"cage"
	"cage/internal/exec"
	"cage/internal/serve"
)

// serveCountRequests is how many requests of client 0's ring the
// deterministic-count pass replays on one goroutine.
const serveCountRequests = 256

// outcomes is a client-side tally in the server's own terms, for the
// cross-check against Server.StatsSnapshot.
type outcomes struct {
	requests, ok, traps uint64
}

func (o *outcomes) add(p outcomes) {
	o.requests += p.requests
	o.ok += p.ok
	o.traps += p.traps
}

// tally is everything one goroutine counted against the server: handler
// outcomes per tenant and per module, and checkouts per module (handler
// invokes plus direct engine checkouts).
type tally struct {
	tenants   [tenants]outcomes
	modules   [numModules]outcomes
	checkouts [numModules]uint64
}

func (t *tally) merge(o *tally) {
	for i := range t.tenants {
		t.tenants[i].add(o.tenants[i])
	}
	for i := range t.modules {
		t.modules[i].add(o.modules[i])
		t.checkouts[i] += o.checkouts[i]
	}
}

// serveRig is one set-up serve workload: the server with every module
// uploaded through its handler, and the same modules as engine handles
// (the engine's compile cache returns the very modules the uploads
// registered) for warm-up and replays.
type serveRig struct {
	srv     *serve.Server
	dirty   bool
	sources [numModules]string
	ids     [numModules]string
	mods    [numModules]*cage.Module
	setup   tally // what set-up and warm-up did
}

func (r *serveRig) Close() { r.srv.Close() }

func buildServeRig(dirty bool) (*serveRig, error) {
	srv, err := serve.New(serve.Options{
		Config:            cage.FullHardening(),
		ConfigName:        "full",
		ExtendedSandboxes: true,
	})
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	r := &serveRig{srv: srv, dirty: dirty}
	for m := range r.sources {
		if dirty {
			r.sources[m] = dirtySource(moduleConst(m))
		} else {
			r.sources[m] = cleanSource(moduleConst(m))
		}
		if r.ids[m], err = upload(srv.Handler(), tenantName(m/modulesPerTenant), r.sources[m]); err != nil {
			srv.Close()
			return nil, err
		}
		if r.mods[m], err = srv.Engine().CompileSource(r.sources[m]); err != nil {
			srv.Close()
			return nil, fmt.Errorf("engine compile of module %d: %w", m, err)
		}
	}
	if err := r.warm(); err != nil {
		srv.Close()
		return nil, err
	}
	return r, nil
}

// warm spawns two pooled instances per module (one per client, so no
// spawn lands in the timed window) and sends every function of every
// module once through the handler.
func (r *serveRig) warm() error {
	ctx := context.Background()
	for m, mod := range r.mods {
		err := r.srv.Engine().WithInstanceContext(ctx, mod, func(*cage.Instance) error {
			return r.srv.Engine().WithInstanceContext(ctx, mod, func(*cage.Instance) error { return nil })
		})
		if err != nil {
			return fmt.Errorf("warming module %d: %w", m, err)
		}
		r.setup.checkouts[m] += 2
	}
	c := newServeClient(r, nil)
	for m := range r.mods {
		for kind := range serveKinds {
			if (kind >= kindFill) != r.dirty {
				continue
			}
			req := warmRequest(m, kind)
			if err := c.do(&req); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	r.setup.merge(&c.t)
	return nil
}

// warmRequest is a fixed request of the given kind against module m.
func warmRequest(m, kind int) serveRequest {
	k := moduleConst(m)
	r := serveRequest{tenant: m / modulesPerTenant, module: m, kind: kind}
	switch kind {
	case kindAdd:
		r.args, r.want = []uint64{1, 2}, uint64(3+k)
	case kindMix:
		r.args, r.want = []uint64{5, 7}, uint64((5*k+7)^(5>>3))
	case kindLoop:
		r.args, r.want = []uint64{16}, uint64(wantLoop(16, k))
	case kindFill:
		r.args, r.want = []uint64{32, 9}, uint64(wantFill(32, 9, k))
	case kindStale:
		r.args, r.trap = []uint64{4}, true
	}
	return r
}

// upload registers source for tenant through POST /v1/modules and
// returns the module id.
func upload(h http.Handler, tenant, source string) (string, error) {
	req := httptest.NewRequest(http.MethodPost, "/v1/modules", strings.NewReader(source))
	req.Header.Set(serve.TenantHeader, tenant)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		return "", fmt.Errorf("upload for %s: status %d: %s", tenant, rec.Code, rec.Body.String())
	}
	var up serve.UploadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil {
		return "", fmt.Errorf("upload response: %w", err)
	}
	return up.Module, nil
}

// invokeBody renders the POST /v1/invoke body of a request.
func invokeBody(id, fn string, args []uint64) []byte {
	b := []byte(`{"module":"` + id + `","function":"` + fn + `","args":[`)
	for i, a := range args {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, a, 10)
	}
	return append(b, ']', '}')
}

// replayBody is a rewindable request body, so one http.Request value
// serves every request a client sends.
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

// captureWriter keeps the status and body of one response.
type captureWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *captureWriter) Header() http.Header { return w.h }
func (w *captureWriter) WriteHeader(c int)   { w.code = c }
func (w *captureWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// serveClient is one closed-loop gateway worker: it sends the next
// request of its ring only after the previous reply arrived.
type serveClient struct {
	rig     *serveRig
	handler http.Handler
	reqs    []serveRequest
	bodies  [][]byte
	headers [tenants]http.Header
	req     *http.Request
	body    replayBody
	w       captureWriter
	t       tally
}

func newServeClient(r *serveRig, reqs []serveRequest) *serveClient {
	c := &serveClient{rig: r, handler: r.srv.Handler(), reqs: reqs}
	for i := range c.headers {
		c.headers[i] = http.Header{serve.TenantHeader: {tenantName(i)}}
	}
	c.bodies = make([][]byte, len(reqs))
	for i, q := range reqs {
		c.bodies[i] = invokeBody(r.ids[q.module], serveKinds[q.kind], q.args)
	}
	c.req = httptest.NewRequest(http.MethodPost, "/v1/invoke", nil)
	c.req.Body = &c.body
	c.w.h = make(http.Header)
	c.w.body = make([]byte, 0, 1024)
	return c
}

// send issues ring request i through the handler, leaving the reply in
// c.w. It is the operation the serve workloads time.
func (c *serveClient) send(i int) {
	c.body.data, c.body.off = c.bodies[i], 0
	c.req.Header = c.headers[c.reqs[i].tenant]
	c.w.code, c.w.body = 0, c.w.body[:0]
	c.handler.ServeHTTP(&c.w, c.req)
}

// do sends a request that is not in the ring (warm-up) and checks it.
func (c *serveClient) do(q *serveRequest) error {
	c.body.data, c.body.off = invokeBody(c.rig.ids[q.module], serveKinds[q.kind], q.args), 0
	c.req.Header = c.headers[q.tenant]
	c.w.code, c.w.body = 0, c.w.body[:0]
	c.handler.ServeHTTP(&c.w, c.req)
	return c.check(q)
}

// check compares the reply in c.w with the request's expected outcome
// and counts it in the client's tally.
func (c *serveClient) check(q *serveRequest) error {
	c.t.tenants[q.tenant].requests++
	c.t.modules[q.module].requests++
	c.t.checkouts[q.module]++
	if q.trap {
		if c.w.code != http.StatusUnprocessableEntity {
			return fmt.Errorf("%s on module %d: status %d, want 422: %s", serveKinds[q.kind], q.module, c.w.code, c.w.body)
		}
		c.t.tenants[q.tenant].traps++
		c.t.modules[q.module].traps++
		var eb struct {
			Error struct{ Code, Trap string }
		}
		if err := json.Unmarshal(c.w.body, &eb); err != nil {
			return fmt.Errorf("trap reply: %w", err)
		}
		if eb.Error.Code != "guest_trap" || eb.Error.Trap != exec.TrapTagMismatch.String() {
			return fmt.Errorf("%s on module %d: error (%q, %q), want (guest_trap, %q)",
				serveKinds[q.kind], q.module, eb.Error.Code, eb.Error.Trap, exec.TrapTagMismatch)
		}
		return nil
	}
	if c.w.code != http.StatusOK {
		return fmt.Errorf("%s%v on module %d: status %d: %s", serveKinds[q.kind], q.args, q.module, c.w.code, c.w.body)
	}
	c.t.tenants[q.tenant].ok++
	c.t.modules[q.module].ok++
	v, _, err := parseInvokeReply(c.w.body)
	if err != nil {
		return err
	}
	if v != q.want {
		return fmt.Errorf("%s%v on module %d = %d, want %d", serveKinds[q.kind], q.args, q.module, int64(v), int64(q.want))
	}
	return nil
}

// parseInvokeReply reads values[0] and fuel from a 200 invoke body
// ({"values":[v],"fuel":f,...}).
func parseInvokeReply(b []byte) (value, fuel uint64, err error) {
	s := string(b)
	const vp, fp = `{"values":[`, `],"fuel":`
	if !strings.HasPrefix(s, vp) {
		return 0, 0, fmt.Errorf("unexpected invoke reply %q", s)
	}
	s = s[len(vp):]
	i := strings.Index(s, fp)
	if i < 0 {
		return 0, 0, fmt.Errorf("unexpected invoke reply %q", b)
	}
	if value, err = strconv.ParseUint(s[:i], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("invoke reply value: %w", err)
	}
	s = s[i+len(fp):]
	j := strings.IndexAny(s, ",}")
	if j < 0 {
		return 0, 0, fmt.Errorf("unexpected invoke reply %q", b)
	}
	if fuel, err = strconv.ParseUint(s[:j], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("invoke reply fuel: %w", err)
	}
	return value, fuel, nil
}

// replay runs request q again, directly on the server's engine, as the
// spans engine.checkout → exec.call → engine.checkin under parent, and
// checks the result.
func (c *serveClient) replay(tr *tracer, parent int, q *serveRequest) error {
	rt, err := tr.roundTrip(c.rig.srv.Engine(), c.rig.mods[q.module], layerReplay, parent, serveKinds[q.kind], q.args)
	c.t.checkouts[q.module]++
	res, callErr := rt.res, rt.callErr
	switch {
	case err != nil:
		return fmt.Errorf("replay checkout: %w", err)
	case q.trap:
		if !exec.IsTrap(callErr, exec.TrapTagMismatch) {
			return fmt.Errorf("replayed %s on module %d: error %v, want an MTE tag mismatch", serveKinds[q.kind], q.module, callErr)
		}
	case callErr != nil:
		return fmt.Errorf("replayed %s on module %d: %w", serveKinds[q.kind], q.module, callErr)
	case len(res.Values) != 1 || res.Values[0] != q.want:
		return fmt.Errorf("replayed %s%v on module %d = %v, want %d", serveKinds[q.kind], q.args, q.module, res.Values, q.want)
	}
	return nil
}

// op is the serve workloads' operation: the n-th request of the ring
// through the handler, timed around the handler call. Traced, the
// handler call is the root span serve.request, and the request is then
// replayed through the engine underneath it.
func (c *serveClient) op(n int, tr *tracer) (int, time.Duration, error) {
	i := n % len(c.reqs)
	q := &c.reqs[i]
	root := -1
	t0 := time.Now()
	if tr != nil {
		tr.kind = int32(q.kind)
		root = tr.open(layerServeRequest, -1)
	}
	c.send(i)
	if tr != nil {
		tr.close(root)
	}
	lat := time.Since(t0)
	err := c.check(q)
	if err == nil && tr != nil {
		err = c.replay(tr, root, q)
	}
	return q.kind, lat, err
}

func runServe(o options, dirty bool) (*report, error) {
	rig, setup, err := timeSetups(o.setupRuns, func() (*serveRig, error) { return buildServeRig(dirty) })
	if err != nil {
		return nil, err
	}
	defer rig.Close()
	rep := newReport()
	clients := make([]*serveClient, serveClients)
	for i := range clients {
		clients[i] = newServeClient(rig, genServeRequests(o.seed, i, dirty))
	}
	total := rig.setup

	var counts opCounts
	if o.trace {
		if counts, err = rig.countPass(clients[0]); err != nil {
			return nil, err
		}
	}
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		window /= 2
	}
	ops := make([]opFunc, len(clients))
	for i, c := range clients {
		ops[i] = c.op
	}
	win, err := untracedWindow(rep, o, window, ops, len(serveKinds), setup)
	if err != nil {
		return nil, err
	}
	if o.trace {
		truns := runClients(window, true, ops)
		collect(rep, truns, len(serveKinds))
		lg := newLedger(len(serveKinds))
		for _, r := range truns {
			lg.add(r.tr)
		}
		if err := lg.fill(rep, win.p50()); err != nil {
			return nil, err
		}
		fillEngineLayers(rep, lg)
		if d := lg.byKind[layerCall]; len(d[kindStale]) > 0 {
			rep.detail["exec.trap_us"] = us(medianDur(d[kindStale]))
		}
		counts.fill(rep)
	}
	for _, c := range clients {
		total.merge(&c.t)
	}
	rig.crossCheck(rep, &total)
	if o.trace {
		fillEngineStats(rep, rig.srv.Engine())
	}
	return rep, nil
}

// crossCheck compares what the clients saw with the server's own
// counters and the engine's pool counters. Every mismatch is a failure.
func (r *serveRig) crossCheck(rep *report, want *tally) {
	st := r.srv.StatsSnapshot()
	fail := func(format string, args ...any) {
		rep.failed++
		rep.problem("cross-check: "+format, args...)
	}
	cmp := func(what string, got serve.CounterStats, w outcomes) {
		if got.Requests != w.requests || got.OK != w.ok || got.Traps != w.traps {
			fail("%s: server counted requests/ok/traps %d/%d/%d, clients saw %d/%d/%d",
				what, got.Requests, got.OK, got.Traps, w.requests, w.ok, w.traps)
		}
		if n := got.Interrupted + got.Rejected + got.BadRequest + got.Canceled + got.Failures; n != 0 {
			fail("%s: server counted %d unexpected outcomes: %+v", what, n, got)
		}
	}
	for t := 0; t < tenants; t++ {
		cmp("tenant "+tenantName(t), st.Tenants[tenantName(t)].CounterStats, want.tenants[t])
	}
	for m := range r.mods {
		cmp(fmt.Sprintf("module %d", m), st.Modules[r.ids[m]].CounterStats, want.modules[m])
		ps := r.srv.Engine().PoolStatsFor(r.mods[m])
		if ps.Recycled+ps.Discarded != want.checkouts[m] {
			fail("module %d: pool checked in %d (recycled %d + discarded %d), clients checked out %d",
				m, ps.Recycled+ps.Discarded, ps.Recycled, ps.Discarded, want.checkouts[m])
		}
		if ps.Live != ps.Idle {
			fail("module %d: %d live instances but %d idle after the run", m, ps.Live, ps.Idle)
		}
	}
}

// opCounts are the serve workloads' deterministic counts.
type opCounts struct {
	allocsPerOp, fuelPerOp float64
	arch                   archCounts
}

func (s opCounts) fill(rep *report) {
	rep.set("allocs_per_op", s.allocsPerOp, "count")
	rep.set("exec.fuel_per_op", s.fuelPerOp, "count")
	s.arch.fill(rep)
}

// countPass replays the first serveCountRequests requests of c's ring
// on one goroutine and counts heap allocations and fuel per request,
// then prices the same calls in the timing model.
func (r *serveRig) countPass(c *serveClient) (opCounts, error) {
	var out opCounts
	n := min(serveCountRequests, len(c.reqs))
	before := r.srv.StatsSnapshot()
	meter := startAllocMeter()
	for i := 0; i < n; i++ {
		c.send(i)
		if err := c.check(&c.reqs[i]); err != nil {
			meter.stop()
			return out, fmt.Errorf("count pass: %w", err)
		}
	}
	objects, _ := meter.stop()
	after := r.srv.StatsSnapshot()
	var fuel uint64
	for t := 0; t < tenants; t++ {
		fuel += after.Tenants[tenantName(t)].Fuel - before.Tenants[tenantName(t)].Fuel
	}
	out.allocsPerOp = float64(objects) / float64(n)
	out.fuelPerOp = float64(fuel) / float64(n)
	calls := make([]probeCall, n)
	for i, q := range c.reqs[:n] {
		calls[i] = probeCall{src: r.sources[q.module], fn: serveKinds[q.kind], args: q.args, kind: q.kind, trap: q.trap}
	}
	var err error
	out.arch, err = archProbe(calls, len(serveKinds))
	return out, err
}
