package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"cage"
)

// TestServeRequestZeroAlloc is the serve-layer CI gate: one admitted
// invoke — tenant resolution, body parse, module/function lookup,
// admission, pooled checkout, guest call, response encode — performs
// zero steady-state heap allocations when the tenant policy carries no
// fuel or timeout bound and the context is not cancellable. This is
// the contract the whole hot path exists for; any regression here is a
// per-request allocation at serving rates.
func TestServeRequestZeroAlloc(t *testing.T) {
	if raceServeEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	srv, err := New(Options{
		Config:       cage.SandboxingOnly(),
		ConfigName:   "sandbox",
		DefaultQuota: QuotaPolicy{MaxConcurrent: 8, MaxQueue: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Register through the real handler once (setup may allocate).
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/modules", bytes.NewReader([]byte(guestSource))))
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload: status %d", rec.Code)
	}
	var up UploadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/invoke", nil)
	tn := srv.tenantFor(req)
	body := fmt.Sprintf(`{"module":%q,"function":"add","args":[3,4]}`, up.Module)
	ctx := context.Background()

	sc := getScratch()
	defer putScratch(sc)
	sc.buf = append(sc.buf[:0], body...)

	// Warm: spawn the instance, build the pool, publish every snapshot
	// map, and verify the response while we are at it.
	srv.invokePooled(ctx, tn, sc)
	if sc.status != http.StatusOK {
		t.Fatalf("warm invoke: status %d (%+v)", sc.status, sc.apiErr)
	}
	var resp InvokeResponse
	if err := json.Unmarshal(sc.out, &resp); err != nil {
		t.Fatalf("response %q is not JSON: %v", sc.out, err)
	}
	if len(resp.Values) != 1 || resp.Values[0] != 7 {
		t.Fatalf("add(3,4) = %v, want [7]", resp.Values)
	}
	if resp.Fuel == 0 || len(resp.Events) == 0 {
		t.Fatalf("telemetry missing: fuel=%d events=%v", resp.Fuel, resp.Events)
	}

	if n := testing.AllocsPerRun(500, func() {
		srv.invokePooled(ctx, tn, sc)
		if sc.status != http.StatusOK {
			panic("invoke failed mid-measurement")
		}
	}); n != 0 {
		t.Fatalf("admitted invoke allocates %v/op steady-state, want 0", n)
	}
}

// BenchmarkServeRequest prices one admitted invoke through the full
// hot path (parse, lookup, admission, pooled checkout, guest call,
// encode), the serve-layer companion to the engine-layer checkout and
// cache benchmarks.
func BenchmarkServeRequest(b *testing.B) {
	srv, err := New(Options{Config: cage.SandboxingOnly(), ConfigName: "sandbox"})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/modules", bytes.NewReader([]byte(guestSource))))
	if rec.Code != http.StatusCreated {
		b.Fatalf("upload: status %d", rec.Code)
	}
	var up UploadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil {
		b.Fatal(err)
	}
	tn := srv.tenantFor(httptest.NewRequest(http.MethodPost, "/v1/invoke", nil))
	sc := getScratch()
	defer putScratch(sc)
	sc.buf = append(sc.buf[:0], fmt.Sprintf(`{"module":%q,"function":"add","args":[3,4]}`, up.Module)...)
	ctx := context.Background()
	srv.invokePooled(ctx, tn, sc)
	if sc.status != http.StatusOK {
		b.Fatalf("status %d (%+v)", sc.status, sc.apiErr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.invokePooled(ctx, tn, sc)
	}
}

// invokeGolden pins POST /v1/invoke's answer to a corpus of well-formed,
// failing, and malformed bodies: the status and body the allocate-per-
// request stdlib handler gave before the pooled handler replaced it.
// "{MOD}" stands for the registered guestSource module id, in request
// and response alike.
var invokeGolden = []struct {
	status     int
	body, want string
}{
	{200, `{"module":"{MOD}","function":"add","args":[3,4]}`,
		`{"values":[7],"fuel":6,"events":{"alu":1,"branch":1,"local":4}}`},
	{200, `{"module":"{MOD}","function":"add","args":[3,4],"fuel":100000}`,
		`{"values":[7],"fuel":6,"events":{"alu":1,"branch":1,"local":4}}`},
	{200, `  {  "function" : "add" , "module" : "{MOD}" , "args" : [ 1 , 2 ] }  `,
		`{"values":[3],"fuel":6,"events":{"alu":1,"branch":1,"local":4}}`},
	{422, `{"module":"{MOD}","function":"crash","args":[5]}`,
		`{"error":{"code":"guest_trap","message":"wasm trap: integer divide by zero: i64.div_s","trap":"integer divide by zero"}}`},
	{422, `{"module":"{MOD}","function":"spin","args":[0],"fuel":10000}`,
		`{"error":{"code":"guest_trap","message":"wasm trap: fuel exhausted: budget 10000 events","trap":"fuel exhausted"}}`},
	{422, `{"module":"{MOD}","function":"add","args":[3]}`,
		`{"error":{"code":"bad_arity","message":"add takes 2 arguments, got 1"}}`},
	{404, `{"module":"{MOD}","function":"nope","args":[]}`,
		`{"error":{"code":"function_not_found","message":"module \"{MOD}\" exports no function \"nope\""}}`},
	{422, `{"module":"{MOD}","function":"add","args":null}`,
		`{"error":{"code":"bad_arity","message":"add takes 2 arguments, got 0"}}`},
	{400, `{"module":"{MOD}","function":"add","argz":[1,2]}`,
		`{"error":{"code":"bad_request","message":"json: unknown field \"argz\""}}`},
	{400, `{"module":"{MOD}","function":"add","args":[1.5,2]}`,
		`{"error":{"code":"bad_request","message":"json: cannot unmarshal number 1.5 into Go struct field InvokeRequest.args of type uint64"}}`},
	{400, `{"module":"{MOD}","function":"add","args":[-1,2]}`,
		`{"error":{"code":"bad_request","message":"json: cannot unmarshal number -1 into Go struct field InvokeRequest.args of type uint64"}}`},
	{400, `{"module":"{MOD}","function":"add","args":[01,2]}`,
		`{"error":{"code":"bad_request","message":"invalid character '1' after array element"}}`},
	{400, `{"module":"{MOD}","function":"add"}{"x":1}`,
		`{"error":{"code":"bad_request","message":"trailing data after request object"}}`},
	{400, `{"module":"{MOD}","function":"add","timeout_ms":-5}`,
		`{"error":{"code":"bad_request","message":"negative timeout_ms"}}`},
	{404, `{"module":"sha256:x","function":"add","args":[]}`,
		`{"error":{"code":"module_not_found","message":"no module \"sha256:x\" is registered"}}`},
	{404, `{"module":"sha256:feed","function":"add","args":[1,2]}`,
		`{"error":{"code":"module_not_found","message":"no module \"sha256:feed\" is registered"}}`},
	{400, `{"module":"","function":""}`,
		`{"error":{"code":"bad_request","message":"missing field \"module\""}}`},
	{400, `{"function":"add"}`,
		`{"error":{"code":"bad_request","message":"missing field \"module\""}}`},
	{400, `{}`,
		`{"error":{"code":"bad_request","message":"missing field \"module\""}}`},
	{400, `{`,
		`{"error":{"code":"bad_request","message":"unexpected EOF"}}`},
	{400, ``,
		`{"error":{"code":"bad_request","message":"EOF"}}`},
	{400, `[]`,
		`{"error":{"code":"bad_request","message":"json: cannot unmarshal array into Go value of type serve.InvokeRequest"}}`},
	{404, `{"module":"m","function":"f","args":[18446744073709551615]}`,
		`{"error":{"code":"module_not_found","message":"no module \"m\" is registered"}}`},
	{400, `{"module":"m","function":"f","args":[18446744073709551616]}`,
		`{"error":{"code":"bad_request","message":"json: cannot unmarshal number 18446744073709551616 into Go struct field InvokeRequest.args of type uint64"}}`},
}

// TestInvokeGolden replays invokeGolden and requires each status and a
// semantically identical JSON body. Bodies are compared decoded, not as
// bytes: the stdlib handler sorted the "events" keys, while the pooled
// handler writes them in arch event order.
func TestInvokeGolden(t *testing.T) {
	ts, _ := newTestServer(t, Options{
		Config:       cage.SandboxingOnly(),
		ConfigName:   "sandbox",
		DefaultQuota: QuotaPolicy{Fuel: 1_000_000, MaxConcurrent: 4, MaxQueue: 4},
	})
	mod := uploadSource(t, ts, "", guestSource).Module
	for i, g := range invokeGolden {
		body := strings.ReplaceAll(g.body, "{MOD}", mod)
		var raw json.RawMessage
		resp := postJSON(t, ts, "/v1/invoke", "golden", []byte(body), &raw)
		if resp.StatusCode != g.status {
			t.Errorf("body %d %q: status %d, want %d", i, body, resp.StatusCode, g.status)
			continue
		}
		var got, want any
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Errorf("body %d: response %s is not JSON: %v", i, raw, err)
			continue
		}
		if err := json.Unmarshal([]byte(strings.ReplaceAll(g.want, "{MOD}", mod)), &want); err != nil {
			t.Fatalf("body %d: golden %s is not JSON: %v", i, g.want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("body %d %q: got %s, want %s", i, body, raw, g.want)
		}
	}
}

// TestParseInvokeFastDifferential pins the fast parser against the
// strict stdlib decoder on a corpus of accept/fallback edges: whenever
// the fast parser accepts a body, the stdlib decoder must agree on
// every field (or reject with exactly the validation error the fast
// path raises itself).
func TestParseInvokeFastDifferential(t *testing.T) {
	bodies := []string{
		`{"module":"m","function":"f","args":[1,2,3],"fuel":9,"timeout_ms":50}`,
		`{"module":"m","function":"f"}`,
		`{"args":[7],"function":"f","module":"m"}`,
		`{"module":"m","function":"f","args":[]}`,
		`{"module":"m","function":"f","args":null}`,
		`{"module":"m","function":"f","args":[0]}`,
		`{"module":"m","function":"f","args":[18446744073709551615]}`,
		`  { "module" : "m" , "function" : "f" }  `,
		`{"module":"","function":""}`,
		`{}`,
		`{"module":"m","function":"f","args":[1],"args":[2,3]}`, // duplicate key: last wins
		`{"module":"m","module":"n","function":"f"}`,
	}
	sc := getScratch()
	defer putScratch(sc)
	for _, body := range bodies {
		sc.buf = append(sc.buf[:0], body...)
		if !sc.parseInvokeFast() {
			t.Errorf("fast parser refused in-grammar body %q", body)
			continue
		}
		req, err := decodeInvokeRequest(bytes.NewReader([]byte(body)))
		if err != nil {
			verr := sc.validate()
			if verr == nil || verr.Error() != err.Error() {
				t.Errorf("body %q: stdlib rejects (%v), fast validate says %v", body, err, verr)
			}
			continue
		}
		if string(sc.module) != req.Module || string(sc.function) != req.Function ||
			sc.fuel != req.Fuel || sc.timeoutMs != req.TimeoutMs ||
			fmt.Sprint(sc.args) != fmt.Sprint([]uint64(req.Args)) {
			t.Errorf("body %q: fast (%q %q %v fuel=%d t=%d) != stdlib (%q %q %v fuel=%d t=%d)",
				body, sc.module, sc.function, sc.args, sc.fuel, sc.timeoutMs,
				req.Module, req.Function, req.Args, req.Fuel, req.TimeoutMs)
		}
	}

	// Out-of-grammar bodies must fall back, never mis-parse.
	for _, body := range []string{
		`{"module":"m","function":"f","args":[1.5]}`,
		`{"module":"m","function":"f","args":[-1]}`,
		`{"module":"m","function":"f","args":[01]}`,
		`{"module":"m","function":"f","args":[1e3]}`,
		`{"module":"m","function":"f","fuel":18446744073709551616}`,
		`{"module":"m","function":"f","timeout_ms":-5}`,
		`{"module":"m","function":"f","unknown":1}`,
		`{"module":"m\n","function":"f"}`,
		`{"module":"m","function":"f"}{"x":1}`,
		`{"module":"m","function":"f"} trailing`,
		`{"module":"m","function":"f",}`,
		`{"module":"m" "function":"f"}`,
		`[1,2]`,
		`{`,
		``,
	} {
		sc.buf = append(sc.buf[:0], body...)
		if sc.parseInvokeFast() {
			t.Errorf("fast parser accepted out-of-grammar body %q", body)
		}
	}
}
