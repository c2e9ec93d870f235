// Command cage-loadgen drives a cage-serve daemon to saturation and
// emits the measurement as a cage-bench/v2-compatible JSON document
// (the "saturation" record): p50/p99 request latency and throughput
// versus client concurrency.
//
// With no -addr it self-hosts the full sweep: a live cage-serve is
// stood up (real loopback HTTP) for each of the four sandbox presets
// (baseline32, baseline64, sandbox, full), the built-in sum workload is
// registered through the upload path, and every concurrency level is
// measured — the repo's top-line trajectory artifact, archived by CI.
//
// With -addr it sweeps an already-running daemon instead, uploading
// -source (or using -module) and labeling the points with -label.
//
// With -scaling it emits the "scaling" record instead: the serve hot
// path (sharded caches, lock-free checkout, zero-alloc handler) across
// GOMAXPROCS × concurrency, driven in-process so the serve path rather
// than loopback TCP is what gets priced.
//
// Usage:
//
//	cage-loadgen [-quick] [-o out.json]
//	cage-loadgen -scaling [-quick] [-o out.json]
//	cage-loadgen -addr http://host:8080 [-label full] [-tenant name]
//	             [-source file.c | -module sha256:…] [-fn run] [-arg n]
//	             [-concurrency 1,2,4,8,16,32] [-requests 50]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cage/internal/bench"
	"cage/internal/serve"
)

func main() {
	addr := flag.String("addr", "", "base URL of a running cage-serve (empty = self-host all presets)")
	label := flag.String("label", "custom", "config label for the emitted points (with -addr)")
	tenant := flag.String("tenant", "bench", "tenant name sent as X-Cage-Tenant")
	source := flag.String("source", "", "MiniC source file to upload as the workload (with -addr)")
	module := flag.String("module", "", "already-registered module id to invoke instead of uploading (with -addr)")
	fn := flag.String("fn", "run", "exported function to invoke")
	arg := flag.Uint64("arg", 4096, "single integer argument passed to the function")
	levels := flag.String("concurrency", "1,2,4,8,16,32", "comma-separated concurrency levels")
	requests := flag.Int("requests", 50, "requests per client at each level")
	quick := flag.Bool("quick", false, "CI smoke shape: small workload, few levels, few requests")
	scaling := flag.Bool("scaling", false, "emit the in-process serve hot path across GOMAXPROCS × concurrency instead of the saturation sweep")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	doc := bench.JSONReport{Schema: bench.JSONSchema, Quick: *quick}
	if *scaling {
		rec, err := serve.MeasureScaling(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cage-loadgen: %v\n", err)
			os.Exit(1)
		}
		doc.Scaling = rec
	} else {
		rec, err := measure(*addr, *label, *tenant, *source, *module, *fn, *arg, *levels, *requests, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cage-loadgen: %v\n", err)
			os.Exit(1)
		}
		doc.Saturation = rec
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cage-loadgen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "cage-loadgen: %v\n", err)
		os.Exit(1)
	}
}

func measure(addr, label, tenant, source, module, fn string, arg uint64, levels string, requests int, quick bool) (*bench.SaturationRecord, error) {
	if addr == "" {
		return serve.MeasureSaturation(quick)
	}

	cc, err := parseLevels(levels)
	if err != nil {
		return nil, err
	}
	client := &serve.Client{BaseURL: addr, Tenant: tenant}
	id := module
	if id == "" {
		if source == "" {
			return nil, fmt.Errorf("with -addr, provide -source or -module")
		}
		src, err := os.ReadFile(source)
		if err != nil {
			return nil, err
		}
		if id, err = client.Upload(src); err != nil {
			return nil, err
		}
	}
	req := serve.InvokeRequest{Module: id, Function: fn, Args: []uint64{arg}}
	rec := &bench.SaturationRecord{Workload: fn, N: int(arg), RequestsPerClient: requests}
	for _, c := range cc {
		lr := serve.RunLoad(client, req, c, c*requests)
		rec.Points = append(rec.Points, bench.SaturationPoint{
			Config:        label,
			Concurrency:   c,
			Requests:      lr.Requests,
			Errors:        lr.Errors,
			P50Ns:         lr.P50.Nanoseconds(),
			P99Ns:         lr.P99.Nanoseconds(),
			ThroughputRPS: lr.Throughput,
		})
	}
	return rec, nil
}

func parseLevels(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad concurrency level %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}
