package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"cage"
)

// TenantHeader names the request header carrying the tenant identity;
// requests without it run as DefaultTenant. The header is the only
// tenant credential, so per-tenant state must stay bounded against
// hostile values: past Options.MaxTenants distinct names, unknown
// tenants share the OverflowTenant aggregate.
const (
	TenantHeader   = "X-Cage-Tenant"
	DefaultTenant  = "default"
	OverflowTenant = "(other)"
)

const (
	// DefaultMaxTenants bounds first-sight tenant creation when
	// Options.MaxTenants is 0.
	DefaultMaxTenants = 256
	// DefaultMaxUploadBytes is the server-wide upload cap applied when
	// Options.MaxUploadBytes is 0, so a tenant policy with no
	// MaxModuleBytes still cannot stream an unbounded body into memory.
	DefaultMaxUploadBytes = 64 << 20
)

// maxInvokeBody bounds an invoke request body; invocation arguments are
// a function name plus scalar args, so anything near this is hostile.
const maxInvokeBody = 1 << 20

// Options configures a Server.
type Options struct {
	// Config is the sandbox preset every module is compiled and executed
	// under (the server's one engine).
	Config cage.Config
	// ConfigName labels Config in /v1/stats (e.g. the cage.ConfigByName
	// preset the CLI resolved).
	ConfigName string
	// DefaultQuota applies to every tenant without an explicit entry in
	// Tenants. The zero policy is unbounded.
	DefaultQuota QuotaPolicy
	// Tenants overrides the policy per tenant name.
	Tenants map[string]QuotaPolicy
	// MaxTenants caps how many distinct tenant states (admission
	// semaphore, counters, metrics label series) the server creates on
	// first sight of an unknown X-Cage-Tenant value — the header is
	// unauthenticated, so unbounded creation is a memory and metrics-
	// cardinality DoS. Names listed in Tenants always get their own
	// state; past the cap every other unknown name shares one aggregate
	// state (DefaultQuota, labeled OverflowTenant). 0 means
	// DefaultMaxTenants; negative lifts the cap.
	MaxTenants int
	// MaxUploadBytes is the server-wide hard cap on one upload body,
	// enforced even for tenants whose policy leaves MaxModuleBytes at 0
	// (unlimited). 0 means DefaultMaxUploadBytes; negative lifts the cap.
	MaxUploadBytes int64
	// PoolLimit overrides the engine's per-module live-instance cap
	// (0 keeps the config's §7.4 tag budget).
	PoolLimit int
	// ExtendedSandboxes lifts the 15-sandbox budget via §6.4 tag reuse.
	ExtendedSandboxes bool
}

// Server is the multi-tenant execution daemon: one engine (plus a
// Spectre-hardened sibling when some tenant policy asks for it), a
// content-addressed module registry, per-tenant admission and quotas,
// and a metrics surface. See the package documentation for the HTTP
// contract.
type Server struct {
	opts Options
	eng  *cage.Engine
	// hardEng is the Spectre-hardened twin of eng — Options.Config with
	// SpectreHarden set, otherwise identical — serving tenants whose
	// policy sets SpectreHardened. nil when no policy does: the sibling
	// engine carries its own instance pools and §7.4 tag budget, so it
	// is not built speculatively.
	hardEng *cage.Engine
	reg     registry
	mux     *http.ServeMux

	// tenants is the authoritative name → state map, written only under
	// mu; tenantSnap is its immutable published copy. Every request
	// resolves its tenant off the snapshot with one atomic load — the
	// mutex is touched only the first time a name is seen, so neither a
	// tenant burst nor a stats scrape can stall the invoke hot path.
	mu         sync.Mutex
	tenants    map[string]*tenant
	tenantSnap atomic.Pointer[map[string]*tenant]
}

// New builds a Server (and its engine) for the options.
func New(opts Options) (*Server, error) {
	tune := func(eng *cage.Engine) error {
		if opts.ExtendedSandboxes {
			if err := eng.EnableExtendedSandboxes(); err != nil {
				return err
			}
		}
		if opts.PoolLimit > 0 {
			if err := eng.SetPoolLimit(opts.PoolLimit); err != nil {
				return err
			}
		}
		return nil
	}
	eng := cage.NewEngine(opts.Config)
	if err := tune(eng); err != nil {
		return nil, err
	}
	s := &Server{opts: opts, eng: eng, tenants: make(map[string]*tenant)}
	needHardened := opts.DefaultQuota.SpectreHardened
	for _, p := range opts.Tenants {
		needHardened = needHardened || p.SpectreHardened
	}
	if needHardened {
		hcfg := opts.Config
		hcfg.SpectreHarden = true
		s.hardEng = cage.NewEngine(hcfg)
		if err := tune(s.hardEng); err != nil {
			return nil, err
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/modules", s.handleUpload)
	mux.HandleFunc("GET /v1/modules", s.handleList)
	mux.HandleFunc("POST /v1/invoke", s.handleInvoke)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	})
	s.mux = mux
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Engine exposes the underlying engine (tests and embedders).
func (s *Server) Engine() *cage.Engine { return s.eng }

// Close retires every pooled instance. In-flight requests must have
// drained (the HTTP server shut down) first.
func (s *Server) Close() {
	s.eng.Close()
	if s.hardEng != nil {
		s.hardEng.Close()
	}
}

// engineFor picks the engine a tenant's invocations run on: the
// Spectre-hardened sibling when its policy asks for it, the base
// engine otherwise.
func (s *Server) engineFor(tn *tenant) *cage.Engine {
	if tn.policy.SpectreHardened && s.hardEng != nil {
		return s.hardEng
	}
	return s.eng
}

// tenantFor returns (creating on first sight) the tenant state for a
// request. Creation is bounded: once MaxTenants distinct states exist,
// unknown names collapse into the shared OverflowTenant aggregate, so
// an attacker cycling header values cannot grow the tenant map or the
// /metrics label space without bound.
func (s *Server) tenantFor(r *http.Request) *tenant {
	name := r.Header.Get(TenantHeader)
	if name == "" {
		name = DefaultTenant
	}
	// Fast path: every tenant that has ever sent a request is in the
	// published snapshot — one atomic load, one map index, no lock.
	if m := s.tenantSnap.Load(); m != nil {
		if t, ok := (*m)[name]; ok {
			return t
		}
	}
	return s.tenantForSlow(name)
}

// tenantForSlow creates (or races to find) the state for a first-sight
// name under the mutex, then republishes the snapshot.
func (s *Server) tenantForSlow(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[name]; ok {
		return t
	}
	policy, known := s.opts.Tenants[name]
	if !known {
		policy = s.opts.DefaultQuota
		if limit := s.maxTenants(); limit >= 0 && len(s.tenants) >= limit {
			name = OverflowTenant
			if t, ok := s.tenants[name]; ok {
				return t
			}
		}
	}
	t := newTenant(name, policy)
	s.tenants[name] = t
	snap := make(map[string]*tenant, len(s.tenants))
	for k, v := range s.tenants {
		snap[k] = v
	}
	s.tenantSnap.Store(&snap)
	return t
}

// maxTenants resolves Options.MaxTenants (0 → default, negative → no
// cap, reported as -1).
func (s *Server) maxTenants() int {
	switch {
	case s.opts.MaxTenants > 0:
		return s.opts.MaxTenants
	case s.opts.MaxTenants < 0:
		return -1
	}
	return DefaultMaxTenants
}

// uploadLimit resolves the effective body cap for one tenant's upload:
// the tenant's MaxModuleBytes quota tightened by the server-wide
// MaxUploadBytes backstop. 0 means genuinely unlimited (both caps
// explicitly lifted).
func (s *Server) uploadLimit(policy QuotaPolicy) int64 {
	limit := s.opts.MaxUploadBytes
	if limit == 0 {
		limit = DefaultMaxUploadBytes
	} else if limit < 0 {
		limit = 0
	}
	if q := policy.MaxModuleBytes; q > 0 && (limit == 0 || q < limit) {
		limit = q
	}
	return limit
}

// apiError is the structured error body: {"error": {...}}.
type apiError struct {
	// Code is a stable machine-readable discriminator.
	Code string `json:"code"`
	// Message is human-readable detail.
	Message string `json:"message"`
	// Trap names the guest trap for code "guest_trap" (exec.TrapCode
	// strings, e.g. "fuel exhausted").
	Trap string `json:"trap,omitempty"`
	// RetryAfterMs accompanies code "queue_full" (it mirrors the
	// Retry-After header at millisecond resolution).
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

type errorBody struct {
	Error apiError `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, e apiError) {
	writeJSON(w, status, errorBody{Error: e})
}

// UploadResponse answers POST /v1/modules.
type UploadResponse struct {
	// Module is the content-hash id ("sha256:…") to invoke by.
	Module string `json:"module"`
	// Cached reports that the content was already registered.
	Cached bool `json:"cached"`
	// Exports lists the module's callable functions.
	Exports []string `json:"exports"`
	// Init is the module's registered pre-initialization function, ""
	// for none. Ids are content-addressed and first-registrant-wins, so
	// a cached re-upload reports the original registration's init, not
	// the re-upload's ?init= parameter.
	Init string `json:"init,omitempty"`
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	tn := s.tenantFor(r)
	body := r.Body
	if limit := s.uploadLimit(tn.policy); limit > 0 {
		body = http.MaxBytesReader(w, r.Body, limit)
	}
	data, err := io.ReadAll(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			tn.m.stripe().badRequest.Add(1)
			writeError(w, http.StatusRequestEntityTooLarge, apiError{
				Code:    "module_too_large",
				Message: fmt.Sprintf("upload exceeds the %d-byte module size limit", tooLarge.Limit),
			})
			return
		}
		tn.m.stripe().canceled.Add(1)
		return
	}

	// A byte-identical re-upload is answered from the registry before
	// any compile, engine-cache, or quota work — re-registering
	// existing content is free and costs the server nothing.
	if entry, ok := s.reg.lookupSource(data); ok {
		writeJSON(w, http.StatusOK, UploadResponse{Module: entry.id, Cached: true, Exports: entry.exportNames(), Init: entry.initFn})
		return
	}

	// A tenant with no quota headroom is refused before its body is
	// compiled: rejected uploads must not consume engine-cache memory.
	// (This also refuses a re-upload of registered content whose bytes
	// differ from the creating upload's — dedup against the canonical
	// encoding would require the compile this check exists to avoid.)
	if max := tn.policy.MaxModules; max > 0 && tn.modules.Load() >= int64(max) {
		s.rejectModuleQuota(w, tn)
		return
	}

	var mod *cage.Module
	if isWasm(data) {
		mod, err = s.eng.DecodeModule(data)
		if err != nil {
			tn.m.stripe().badRequest.Add(1)
			writeError(w, http.StatusUnprocessableEntity, apiError{
				Code: "invalid_module", Message: err.Error(),
			})
			return
		}
	} else {
		mod, err = s.eng.CompileSource(string(data))
		if err != nil {
			tn.m.stripe().badRequest.Add(1)
			writeError(w, http.StatusUnprocessableEntity, apiError{
				Code: "compile_error", Message: err.Error(),
			})
			return
		}
	}

	// ?init= names a Wizer-style pre-initialization function: the first
	// invocation runs it once and snapshots the result; every checkout
	// after that forks from the frozen image. Validated here so a bad
	// name fails the upload, not the first unlucky invoke.
	initFn := r.URL.Query().Get("init")
	if initFn != "" {
		sig, ok := exportedFuncs(mod.Raw())[initFn]
		if !ok {
			tn.m.stripe().badRequest.Add(1)
			writeError(w, http.StatusUnprocessableEntity, apiError{
				Code:    "init_not_found",
				Message: fmt.Sprintf("module exports no function %q to pre-initialize with", initFn),
			})
			return
		}
		if sig.params != 0 {
			tn.m.stripe().badRequest.Add(1)
			writeError(w, http.StatusUnprocessableEntity, apiError{
				Code:    "init_bad_signature",
				Message: fmt.Sprintf("init function %q takes %d arguments; pre-initialization functions take none", initFn, sig.params),
			})
			return
		}
	}

	// The MaxModules charge is reserved under the registry lock, before
	// the entry is inserted: a rejected upload leaves no entry behind,
	// so re-uploading the same bytes cannot ride a cached hit around
	// the quota. Finding existing content reserves nothing.
	entry, created, err := s.reg.register(tn.name, data, mod, initFn, func() error {
		if max := tn.policy.MaxModules; max > 0 {
			if tn.modules.Add(1) > int64(max) {
				tn.modules.Add(-1)
				return errModuleQuota
			}
		}
		return nil
	})
	switch {
	case errors.Is(err, errModuleQuota):
		s.rejectModuleQuota(w, tn)
		return
	case err != nil:
		tn.m.stripe().failures.Add(1)
		writeError(w, http.StatusInternalServerError, apiError{
			Code: "internal", Message: err.Error(),
		})
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, UploadResponse{Module: entry.id, Cached: !created, Exports: entry.exportNames(), Init: entry.initFn})
}

// rejectModuleQuota answers an upload from a tenant with no MaxModules
// headroom.
func (s *Server) rejectModuleQuota(w http.ResponseWriter, tn *tenant) {
	tn.m.stripe().badRequest.Add(1)
	writeError(w, http.StatusForbidden, apiError{
		Code:    "module_quota_exceeded",
		Message: fmt.Sprintf("tenant %q may register at most %d modules", tn.name, tn.policy.MaxModules),
	})
}

// ModuleInfo is one GET /v1/modules entry.
type ModuleInfo struct {
	Module    string   `json:"module"`
	SizeBytes int64    `json:"size_bytes"`
	Exports   []string `json:"exports"`
	Init      string   `json:"init,omitempty"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.list()
	out := struct {
		Modules []ModuleInfo `json:"modules"`
	}{Modules: make([]ModuleInfo, 0, len(entries))}
	for _, e := range entries {
		out.Modules = append(out.Modules, ModuleInfo{Module: e.id, SizeBytes: e.size, Exports: e.exportNames(), Init: e.initFn})
	}
	writeJSON(w, http.StatusOK, out)
}

// InvokeRequest is the POST /v1/invoke body.
type InvokeRequest struct {
	// Module is a registered module id ("sha256:…").
	Module string `json:"module"`
	// Function is the exported function to call.
	Function string `json:"function"`
	// Args are the raw 64-bit argument bits.
	Args []uint64 `json:"args"`
	// Fuel asks for a per-call fuel budget; the tenant policy clamps it.
	Fuel uint64 `json:"fuel,omitempty"`
	// TimeoutMs asks for a per-call wall-clock bound in milliseconds;
	// the tenant policy clamps it.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// InvokeResponse is the 200 body of POST /v1/invoke.
type InvokeResponse struct {
	// Values are the return values as raw 64-bit bits.
	Values []uint64 `json:"values"`
	// Fuel is the timing-model event total the call consumed.
	Fuel uint64 `json:"fuel"`
	// Events breaks Fuel down by event name (non-zero entries only).
	Events map[string]uint64 `json:"events,omitempty"`
}

// decodeInvokeRequest parses an invoke body strictly: unknown fields,
// trailing garbage, and non-integer args are errors, so a malformed
// request is a 400, never a silent partial parse.
func decodeInvokeRequest(body io.Reader) (*InvokeRequest, error) {
	dec := json.NewDecoder(io.LimitReader(body, maxInvokeBody))
	dec.DisallowUnknownFields()
	var req InvokeRequest
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, errors.New("trailing data after request object")
	}
	if req.Module == "" {
		return nil, errors.New("missing field \"module\"")
	}
	if req.Function == "" {
		return nil, errors.New("missing field \"function\"")
	}
	if req.TimeoutMs < 0 {
		return nil, errors.New("negative timeout_ms")
	}
	return &req, nil
}

// ensureSnapshot makes sure a module registered with an init function
// has its post-init snapshot built on eng, running the init at most
// once per engine for the module's lifetime (the base and hardened
// engines keep separate pools, so each forks its own image). The
// one-time init fuel is charged to the tenant whose invocation
// triggered the build — never again to anyone: every later request on
// that engine forks the frozen image without re-running init (see the
// quota regression test). The init runs under the triggering tenant's
// own call policy, so a hostile init cannot outrun the quotas its
// owner's requests live under.
func (s *Server) ensureSnapshot(ctx context.Context, tn *tenant, entry *moduleEntry, eng *cage.Engine) error {
	if entry.initFn == "" {
		return nil
	}
	entry.snapMu.Lock()
	defer entry.snapMu.Unlock()
	if entry.snapDone[eng] {
		return nil
	}
	snap, err := eng.Snapshot(ctx, entry.mod,
		cage.WithInit(entry.initFn),
		cage.WithInitOptions(func(c *cage.CallSpec) { *c = tn.callSpec(0, 0) }))
	if err != nil {
		return err
	}
	if entry.snapDone == nil {
		entry.snapDone = make(map[*cage.Engine]bool)
	}
	entry.snapDone[eng] = true
	tn.m.stripe().fuel.Add(snap.InitFuel())
	entry.m.stripe().fuel.Add(snap.InitFuel())
	return nil
}

// StatsSnapshot assembles the /v1/stats document (exported for
// embedders that want the counters without HTTP).
func (s *Server) StatsSnapshot() *Stats {
	es := s.eng.Stats()
	memMode, fusion := s.eng.DispatchMode()
	out := &Stats{
		Config:        s.opts.ConfigName,
		RestoreMode:   s.eng.RestoreMode(),
		MemoryMode:    memMode,
		FusionProfile: fusion,
		ModuleCache:   cacheSnapshot(es.Cache),
		ProgramCache:  cacheSnapshot(es.Programs),
		Snapshots:     snapshotCacheSnapshot(es.Snapshots),
		Pools:         poolSnapshot(es.Pools),
		Tenants:       make(map[string]TenantStats),
		Modules:       make(map[string]ModuleStats),
	}
	var tenants []*tenant
	if m := s.tenantSnap.Load(); m != nil {
		tenants = make([]*tenant, 0, len(*m))
		for _, t := range *m {
			tenants = append(tenants, t)
		}
	}
	for _, t := range tenants {
		out.Tenants[t.name] = TenantStats{
			CounterStats: t.m.snapshot(),
			QueueDepth:   int(t.waiting.Load()),
			Active:       int(t.active.Load()),
			Hardened:     t.policy.SpectreHardened,
		}
	}
	for _, e := range s.reg.list() {
		out.Modules[e.id] = ModuleStats{
			CounterStats: e.m.snapshot(),
			SizeBytes:    e.size,
			Pool:         poolSnapshot(s.eng.PoolStatsFor(e.mod)),
		}
	}
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.StatsSnapshot().writeProm(w)
}
