package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nu-aqualab/borges/internal/admission"
	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cache"
	"github.com/nu-aqualab/borges/internal/classify"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/crawler"
	"github.com/nu-aqualab/borges/internal/favicon"
	"github.com/nu-aqualab/borges/internal/llm"
	"github.com/nu-aqualab/borges/internal/mapdiff"
	"github.com/nu-aqualab/borges/internal/ner"
	"github.com/nu-aqualab/borges/internal/peeringdb"
	"github.com/nu-aqualab/borges/internal/resilience"
	"github.com/nu-aqualab/borges/internal/serve"
	"github.com/nu-aqualab/borges/internal/simllm"
	"github.com/nu-aqualab/borges/internal/urlmatch"
	"github.com/nu-aqualab/borges/internal/websim"
	"github.com/nu-aqualab/borges/internal/whois"
)

// runTraced is the traced run: one process that composes the build
// from the modules' public stage functions and times the serving
// layers by calling them directly, recording spans throughout.
func runTraced(ctx context.Context, cfg config, perLayer []metricSpec, rep *report, chk *checks) error {
	f, err := setUp(ctx, cfg, filepath.Join(cfg.work, "setup-0"), chk)
	if err != nil {
		return err
	}
	rec := newRecorder(1 << 20)

	// Untraced and traced compositions alternate, so drift over the run
	// falls on both sides of the tracing-overhead difference.
	var plain, traced []float64
	var layers []map[string]float64
	for i := range 4 {
		r := rec
		if i%2 == 0 {
			r = nil
		}
		runtime.GC()
		bt, err := composeBuild(ctx, f, r, filepath.Join(f.dir, fmt.Sprintf("composed-%d.snapbin", i)))
		if err != nil {
			return err
		}
		chk.expect(bt.hash == f.fullHash, "composed build hash %s differs from the CLI artifact's %s", bt.hash, f.fullHash)
		if r == nil {
			plain = append(plain, ms(bt.wall))
		} else {
			traced = append(traced, ms(bt.wall))
			layers = append(layers, bt.layers)
		}
	}
	for _, name := range buildLayerOrder {
		var vs []float64
		for _, l := range layers {
			vs = append(vs, l[name.Name])
		}
		rep.add(name.Name, name.Unit, median(vs))
	}
	rep.add("build.traced_ms", "ms", median(traced))
	rep.add("trace.build_overhead_ms", "ms", median(traced)-median(plain))
	if err := replaceLayer(f, rec, rep, chk); err != nil {
		return err
	}

	if err := serveLayers(ctx, cfg, f, rec, rep, chk); err != nil {
		return err
	}
	spansDir := filepath.Join(cfg.out, "spans")
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	spans := rec.snapshot()
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	rep.note("spans", fmt.Sprintf("%d written to %s", len(spans), path))
	recorded := make(map[string]bool)
	for _, s := range spans {
		recorded[s.Name] = true
	}
	// A metric that reads 0 counted no calls (warm_mixed's cache answers
	// every fetch and completion), so it has no span to show.
	for _, m := range perLayer {
		name, ok := layerSpans[m.Name]
		chk.expect(ok && (recorded[name] || rep.vals[m.Name].Value == 0),
			"per-layer metric %s has no span (want %q) in %s", m.Name, name, path)
	}
	return nil
}

// layerSpans names, for each per-layer metric, the span the traced run
// records over the calls the metric measures. A metric timed over a
// batch of calls has one span per batch, named with ".batch".
var layerSpans = map[string]string{
	"parse.whois_ms":                 "parse.whois",
	"parse.whois_alloc_mb":           "parse.whois",
	"parse.peeringdb_ms":             "parse.peeringdb",
	"parse.web_ms":                   "parse.web",
	"crawler.crawl_ms":               "crawler.crawl",
	"crawler.fetches":                "crawler.fetch",
	"crawler.fetches_per_unique_url": "crawler.fetch",
	"ner.extract_ms":                 "ner.extract",
	"llm.calls":                      "llm.complete",
	"llm.complete_us":                "llm.complete",
	"urlmatch.rr_ms":                 "urlmatch.rr",
	"classify.classify_ms":           "classify.classify",
	"cluster.consolidate_ms":         "cluster.consolidate",
	"cluster.consolidate_alloc_mb":   "cluster.consolidate",
	"serve.snapshot_build_ms":        "serve.snapshot_build",
	"serve.snapshot_build_alloc_mb":  "serve.snapshot_build",
	"snapbin.encode_ms":              "snapbin.encode",
	"snapbin.replace_ms":             "snapbin.replace",
	"cache.hit_ratio":                "build",
	"cache.disk_hits":                "build",
	"cache.evictions":                "build",
	"build.self_ms":                  "build",
	"build.traced_ms":                "build",
	"trace.build_overhead_ms":        "build",
	"snapbin.load_ms":                "snapbin.load",
	"snapbin.load_mapped_ms":         "snapbin.load_mapped",
	"snapshot.lookup_ns":             "snapshot.lookup.batch",
	"snapshot.as_body_ns":            "snapshot.as_body.batch",
	"snapshot.search_ns":             "snapshot.search.batch",
	"server.as_handler_ns":           "server.as_handler.batch",
	"server.as_handler_allocs":       "server.as_handler.batch",
	"server.search_handler_ns":       "server.search_handler.batch",
	"admission.admit_ns":             "admission.admit.batch",
	"metrics.observe_ns":             "metrics.observe.batch",
	"server.bulk_ns_per_line":        "server.bulk",
	"snapshot.apply_delta_ms":        "snapshot.apply_delta",
	"server.reload_delta_ms":         "server.reload_delta",
	"http.as_roundtrip_ns":           "http.as",
	"trace.serve_overhead_ns":        "http.as",
	"loadgen.late_p99_ms":            "loadgen.late",
}

// buildLayerOrder lists the per-layer build metrics composeBuild
// produces, in pipeline order.
var buildLayerOrder = []metricSpec{
	{"parse.whois_ms", "ms"}, {"parse.whois_alloc_mb", "MB"},
	{"parse.peeringdb_ms", "ms"}, {"parse.web_ms", "ms"},
	{"crawler.crawl_ms", "ms"}, {"crawler.fetches", "count"}, {"crawler.fetches_per_unique_url", "ratio"},
	{"ner.extract_ms", "ms"}, {"llm.calls", "count"}, {"llm.complete_us", "us"},
	{"urlmatch.rr_ms", "ms"}, {"classify.classify_ms", "ms"},
	{"cluster.consolidate_ms", "ms"}, {"cluster.consolidate_alloc_mb", "MB"},
	{"serve.snapshot_build_ms", "ms"}, {"serve.snapshot_build_alloc_mb", "MB"},
	{"snapbin.encode_ms", "ms"},
	{"cache.hit_ratio", "ratio"}, {"cache.disk_hits", "count"}, {"cache.evictions", "count"},
	{"build.self_ms", "ms"},
}

// buildTrace is one composed build.
type buildTrace struct {
	hash   string
	wall   time.Duration
	layers map[string]float64
}

// reqIDs hands out request IDs: one per composed build, per traced
// HTTP request, and per timed call or batch of the serving layers.
var reqIDs atomic.Int64

// composeBuild runs the borges CLI's pipeline with its default flags
// (plus -cache-dir for warm_mixed) by calling each stage's public
// function, as core.Run does: parse, org keys, the NER chain beside
// the web chain (crawl, R&R, favicon classification), consolidation,
// snapshot build and encode. It times every stage; with a recorder it
// also records the stages as spans under one build span.
func composeBuild(ctx context.Context, f *fixture, rec *recorder, out string) (*buildTrace, error) {
	req := reqIDs.Add(1)
	bt := &buildTrace{layers: make(map[string]float64)}
	start := time.Now()
	root := rec.begin("build", 0, req)
	stage := func(name string, parent int64, fn func() error) (time.Duration, error) {
		id := rec.begin(name, parent, req)
		t := time.Now()
		err := fn()
		d := time.Since(t)
		rec.end(id)
		return d, err
	}
	allocMB := func(name string, parent int64, fn func() error) (time.Duration, float64, error) {
		a0 := heapAllocBytes()
		d, err := stage(name, parent, fn)
		return d, float64(heapAllocBytes()-a0) / (1 << 20), err
	}

	var (
		w   *whois.Snapshot
		pdb *peeringdb.Snapshot
		u   *websim.Universe
	)
	d, mb, err := allocMB("parse.whois", root, func() (err error) {
		w, err = parseFile(f.as2org, func(r io.Reader) (*whois.Snapshot, error) { return whois.Parse(r, "snapshot") })
		return err
	})
	if err != nil {
		return nil, err
	}
	bt.layers["parse.whois_ms"], bt.layers["parse.whois_alloc_mb"] = ms(d), mb
	if d, err = stage("parse.peeringdb", root, func() (err error) {
		pdb, err = parseFile(f.pdb, func(r io.Reader) (*peeringdb.Snapshot, error) { return peeringdb.Parse(r, "snapshot") })
		return err
	}); err != nil {
		return nil, err
	}
	bt.layers["parse.peeringdb_ms"] = ms(d)
	if d, err = stage("parse.web", root, func() (err error) {
		u, err = parseFile(f.web, websim.ReadManifest)
		return err
	}); err != nil {
		return nil, err
	}
	bt.layers["parse.web_ms"] = ms(d)

	// The CLI's defaults: an in-process cache (with a disk tier under
	// -cache-dir), two retries per fault and breakers after five
	// consecutive failures, shared by both chains.
	var store *cache.Cache
	if _, err := stage("cache.open", root, func() (err error) {
		store, err = cache.New(cache.Options{Dir: f.cacheDir})
		return err
	}); err != nil {
		return nil, err
	}
	defer store.Close()
	breakers := &resilience.BreakerSet{Threshold: 5}
	policy := func(retryable func(error) bool) *resilience.Policy {
		return &resilience.Policy{MaxAttempts: 3, Retryable: retryable}
	}
	transport := &countingTransport{inner: u, rec: rec, parent: root, req: req}
	model := &countingProvider{inner: simllm.NewModel(), rec: rec, parent: root, req: req}
	var provider llm.Provider = &llm.Resilient{Inner: model, Exec: &resilience.Executor{Policy: policy(llm.Retryable), Breakers: breakers}}
	provider = &cache.Provider{Inner: provider, Cache: store}

	b := cluster.NewBuilder()
	_, _ = stage("orgkeys", root, func() error {
		b.AddUniverse(w.ASNs()...)
		b.AddAll(w.SiblingSets())
		b.AddAll(pdb.SiblingSets())
		return nil
	})

	var (
		wg                      sync.WaitGroup
		naSets, rrSets, favSets []cluster.SiblingSet
		uniqueURLs              int
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		chain := rec.begin("ner.chain", root, req)
		defer rec.end(chain)
		var exs []ner.Extraction
		d, _ := stage("ner.extract", chain, func() error {
			exs = (&ner.Extractor{Provider: provider}).ExtractAll(ctx, ner.RecordsFromPDB(pdb))
			return nil
		})
		bt.layers["ner.extract_ms"] = ms(d)
		naSets = ner.SiblingSets(exs)
	}()
	var webLayers [3]time.Duration
	go func() {
		defer wg.Done()
		chain := rec.begin("web.chain", root, req)
		defer rec.end(chain)
		cr := crawler.New(crawler.Options{Transport: transport, Cache: store, Retry: policy(nil), Breakers: breakers})
		nets := pdb.NetsWithWebsite()
		tasks := make([]crawler.Task, 0, len(nets))
		unique := make(map[string]bool, len(nets))
		for _, n := range nets {
			canon, err := urlmatch.Canonicalize(n.Website)
			if err != nil {
				continue
			}
			tasks = append(tasks, crawler.Task{ASN: n.ASN, URL: n.Website})
			unique[canon] = true
		}
		uniqueURLs = len(unique)
		var crawls []crawler.Result
		webLayers[0], _ = stage("crawler.crawl", chain, func() error {
			crawls = cr.CrawlAll(ctx, tasks)
			return nil
		})
		webLayers[1], _ = stage("urlmatch.rr", chain, func() error {
			rrSets = urlmatch.NewMatcher(nil).SiblingSets(crawler.FinalURLs(crawls))
			return nil
		})
		webLayers[2], _ = stage("classify.classify", chain, func() error {
			idx := favicon.NewIndex()
			for _, r := range crawls {
				if r.OK {
					idx.Add(r.FinalURL, r.FaviconHash, r.Task.ASN)
				}
			}
			cls := &classify.Classifier{Provider: provider, IconSource: cr.IconBytes}
			favSets = classify.SiblingSets(cls.ClassifyAll(ctx, idx.SharedGroups()))
			return nil
		})
	}()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bt.layers["crawler.crawl_ms"] = ms(webLayers[0])
	bt.layers["urlmatch.rr_ms"] = ms(webLayers[1])
	bt.layers["classify.classify_ms"] = ms(webLayers[2])
	fetches := transport.n.Load()
	bt.layers["crawler.fetches"] = float64(fetches)
	bt.layers["crawler.fetches_per_unique_url"] = float64(fetches) / float64(max(uniqueURLs, 1))
	calls := model.calls.Load()
	bt.layers["llm.calls"] = float64(calls)
	bt.layers["llm.complete_us"] = float64(model.nanos.Load()) / 1e3 / float64(max(calls, 1))

	b.AddAll(naSets)
	b.AddAll(rrSets)
	b.AddAll(favSets)
	var m *cluster.Mapping
	d, mb, err = allocMB("cluster.consolidate", root, func() (err error) {
		m, err = b.BuildShardedChecked(namer(w, pdb), 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	bt.layers["cluster.consolidate_ms"], bt.layers["cluster.consolidate_alloc_mb"] = ms(d), mb
	var snap *serve.Snapshot
	d, mb, err = allocMB("serve.snapshot_build", root, func() (err error) {
		snap, err = serve.NewSnapshot(m, "pipeline")
		return err
	})
	if err != nil {
		return nil, err
	}
	bt.layers["serve.snapshot_build_ms"], bt.layers["serve.snapshot_build_alloc_mb"] = ms(d), mb
	if d, err = stage("snapbin.encode", root, func() (err error) {
		bt.hash, err = serve.WriteSnapshotFile(out, snap)
		return err
	}); err != nil {
		return nil, err
	}
	bt.layers["snapbin.encode_ms"] = ms(d)
	rec.end(root)
	bt.wall = time.Since(start)

	st := store.Stats()
	bt.layers["cache.hit_ratio"] = float64(st.Hits) / float64(max(st.Hits+st.Misses, 1))
	bt.layers["cache.disk_hits"] = float64(st.DiskHits)
	bt.layers["cache.evictions"] = float64(st.Evictions)
	if rec != nil {
		bt.layers["build.self_ms"] = ms(selfTimes(spansOfReq(rec.snapshot(), req))[root])
	}
	return bt, nil
}

func spansOfReq(spans []span, req int64) []span {
	var out []span
	for _, s := range spans {
		if s.Req == req {
			out = append(out, s)
		}
	}
	return out
}

// namer is core.Run's: WHOIS organization names first, then PeeringDB.
func namer(w *whois.Snapshot, pdb *peeringdb.Snapshot) cluster.Namer {
	return func(members []asnum.ASN) string {
		for _, a := range members {
			if org := w.OrgOf(a); org != nil && org.Name != "" {
				return org.Name
			}
		}
		for _, a := range members {
			if org := pdb.OrgOf(a); org != nil && org.Name != "" {
				return org.Name
			}
		}
		return ""
	}
}

func parseFile[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return parse(f)
}

// heapAllocBytes is the cumulative heap allocation of the process.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// countingTransport counts the crawler's fetches from the simulated
// web, recording each as a span under the build.
type countingTransport struct {
	inner       http.RoundTripper
	rec         *recorder
	parent, req int64
	n           atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n.Add(1)
	id := t.rec.begin("crawler.fetch", t.parent, t.req)
	defer t.rec.end(id)
	return t.inner.RoundTrip(r)
}

// countingProvider counts and times the completions that reach the
// model, below the cache and the retry layer, recording each as a span
// under the build.
type countingProvider struct {
	inner       llm.Provider
	rec         *recorder
	parent, req int64
	calls       atomic.Int64
	nanos       atomic.Int64
}

func (p *countingProvider) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	id := p.rec.begin("llm.complete", p.parent, p.req)
	t := time.Now()
	resp, err := p.inner.Complete(ctx, req)
	p.nanos.Add(int64(time.Since(t)))
	p.rec.end(id)
	p.calls.Add(1)
	return resp, err
}

// fakeClock advances 100 µs on every reading. The in-process handler
// loops run far faster than borgesd's per-key rate limit allows on a
// real clock; on this one every key sees a few requests per second.
type fakeClock struct {
	base time.Time
	ns   atomic.Int64
}

func (c *fakeClock) now() time.Time {
	return c.base.Add(time.Duration(c.ns.Add(int64(100 * time.Microsecond))))
}

// admissionConfig is borgesd's default admission configuration.
func admissionConfig(now func() time.Time) *admission.Config {
	return &admission.Config{
		MaxInflight:     256,
		TargetLatency:   150 * time.Millisecond,
		Rate:            50,
		Burst:           100,
		ShedSearchFirst: true,
		Now:             now,
	}
}

// discardLogf formats like borgesd's request log and drops the line.
func discardLogf(format string, args ...any) { fmt.Fprintf(io.Discard, format, args...) }

// layerSpan opens a root span, with a request ID of its own, over one
// timed call or batch of calls in the serving layers, and returns the
// function that closes it.
func layerSpan(rec *recorder, name string) func() {
	id := rec.begin(name, 0, reqIDs.Add(1))
	return func() { rec.end(id) }
}

// perOp times n calls of op and returns the mean cost of one call in
// nanoseconds.
func perOp(n int, op func(i int)) float64 {
	t := time.Now()
	for i := range n {
		op(i)
	}
	return float64(time.Since(t)) / float64(n)
}

// handlerCost prices one handler call: the loop that builds each
// request and recorder and serves it, minus the same loop without the
// serve. It returns the time and heap allocations per call.
func handlerCost(n int, h http.Handler, build func(i int) *http.Request) (float64, float64) {
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	base := perOp(n, func(i int) {
		_ = build(i)
		_ = httptest.NewRecorder()
	})
	runtime.ReadMemStats(&ms1)
	full := perOp(n, func(i int) {
		h.ServeHTTP(httptest.NewRecorder(), build(i))
	})
	runtime.ReadMemStats(&ms2)
	allocs := float64(int64(ms2.Mallocs-ms1.Mallocs)-int64(ms1.Mallocs-ms0.Mallocs)) / float64(n)
	return full - base, allocs
}

// replaceLayer times WriteSnapshotFile over an existing artifact, as a
// rebuild in place writes it, three times. snapbin.encode_ms is the
// same write to a new path, so the pair shows what replacing costs.
func replaceLayer(f *fixture, rec *recorder, rep *report, chk *checks) error {
	out := filepath.Join(f.dir, "replaced.snapbin")
	if _, err := serve.WriteSnapshotFile(out, f.fullSnap); err != nil {
		return err
	}
	var times []float64
	for range 3 {
		end := layerSpan(rec, "snapbin.replace")
		t := time.Now()
		hash, err := serve.WriteSnapshotFile(out, f.fullSnap)
		times = append(times, ms(time.Since(t)))
		end()
		if err != nil {
			return err
		}
		chk.expect(hash == f.fullHash, "replaced artifact hash %s, want %s", hash, f.fullHash)
	}
	rep.add("snapbin.replace_ms", "ms", median(times))
	return nil
}

// serveLayers times the serving layers one by one on the full mapping.
func serveLayers(ctx context.Context, cfg config, f *fixture, rec *recorder, rep *report, chk *checks) error {
	snap, keys, tokens := f.fullSnap, f.keys, f.tokens

	var loads, mapped []float64
	for range 3 {
		end := layerSpan(rec, "snapbin.load")
		t := time.Now()
		s, err := serve.LoadSnapshotFile(f.full)
		loads = append(loads, ms(time.Since(t)))
		end()
		if err != nil {
			return err
		}
		chk.expect(s.ContentHash() == f.fullHash, "buffered load hash %s, want %s", s.ContentHash(), f.fullHash)
		end = layerSpan(rec, "snapbin.load_mapped")
		t = time.Now()
		s, err = serve.LoadSnapshotFileMapped(f.full)
		mapped = append(mapped, ms(time.Since(t)))
		end()
		if err != nil {
			return err
		}
		chk.expect(s.ContentHash() == f.fullHash, "mapped load hash %s, want %s", s.ContentHash(), f.fullHash)
	}
	rep.add("snapbin.load_ms", "ms", median(loads))
	rep.add("snapbin.load_mapped_ms", "ms", median(mapped))

	// batch times n calls of op under one span named for the layer.
	batch := func(name string, n int, op func(i int)) float64 {
		defer layerSpan(rec, name+".batch")()
		return perOp(n, op)
	}
	var sink int
	n := len(keys)
	rep.add("snapshot.lookup_ns", "ns", batch("snapshot.lookup", n, func(i int) {
		if c := snap.Lookup(keys[i]); c != nil {
			sink += c.ID
		}
	}))
	buf := make([]byte, 0, 1024)
	rep.add("snapshot.as_body_ns", "ns", batch("snapshot.as_body", n, func(i int) {
		buf, _ = snap.AppendASBody(buf[:0], keys[i])
	}))
	searches := 20 * len(tokens)
	rep.add("snapshot.search_ns", "ns", batch("snapshot.search", searches, func(i int) {
		sink += len(snap.Search(tokens[i%len(tokens)], searchLimit))
	}))
	_ = sink

	clock := &fakeClock{base: time.Now()}
	srv, err := serve.NewServer(snap, serve.Options{Logf: discardLogf, Admission: admissionConfig(clock.now)})
	if err != nil {
		return err
	}
	h := srv.Handler()
	asPaths := make([]string, 1<<16)
	for i := range asPaths {
		asPaths[i] = "/v1/as/" + strconv.FormatUint(uint64(keys[i]), 10)
	}
	end := layerSpan(rec, "server.as_handler.batch")
	d, allocs := handlerCost(200000, h, func(i int) *http.Request {
		r := httptest.NewRequest(http.MethodGet, asPaths[i%len(asPaths)], nil)
		r.Header.Set("X-Api-Key", apiKey(int64(i)))
		return r
	})
	end()
	rep.add("server.as_handler_ns", "ns", d)
	rep.add("server.as_handler_allocs", "count", allocs)
	end = layerSpan(rec, "server.search_handler.batch")
	d, _ = handlerCost(searches/2, h, func(i int) *http.Request {
		r := httptest.NewRequest(http.MethodGet, "/v1/search?name="+url.QueryEscape(tokens[i%len(tokens)]), nil)
		r.Header.Set("X-Api-Key", apiKey(int64(i)))
		return r
	})
	end()
	rep.add("server.search_handler_ns", "ns", d)

	ctrl := admission.New(*admissionConfig(clock.now))
	clientKeys := make([]string, len(apiKeys))
	for i, k := range apiKeys {
		clientKeys[i] = "key:" + k
	}
	rep.add("admission.admit_ns", "ns", batch("admission.admit", 1<<20, func(i int) {
		release, dec := ctrl.Admit(ctx, admission.Point, clientKeys[i%len(clientKeys)])
		if dec.Admitted {
			release(20 * time.Microsecond)
		}
	}))
	reg := serve.NewMetrics()
	rep.add("metrics.observe_ns", "ns", batch("metrics.observe", 1<<20, func(i int) {
		reg.Observe("as", http.StatusOK, time.Duration(i%1000)*time.Microsecond)
	}))

	if err := bulkLayer(h, f, rec, rep, chk); err != nil {
		return err
	}
	if err := reloadLayers(ctx, f, rec, rep, chk); err != nil {
		return err
	}
	return httpLayers(ctx, cfg, f, rec, rep, chk)
}

// bulkLayer prices one /v1/bulk line through the handler.
func bulkLayer(h http.Handler, f *fixture, rec *recorder, rep *report, chk *checks) error {
	const lines = 1 << 16
	var in, want []byte
	for i := range lines {
		a := f.bulkKeys[i%len(f.bulkKeys)]
		in = strconv.AppendUint(in, uint64(a), 10)
		in = append(in, '\n')
		want, _ = f.fullSnap.AppendASBody(want, a)
	}
	var per []float64
	for i := range 3 {
		r := httptest.NewRequest(http.MethodPost, "/v1/bulk", bytes.NewReader(in))
		r.Header.Set("X-Api-Key", apiKey(int64(i)))
		w := httptest.NewRecorder()
		end := layerSpan(rec, "server.bulk")
		t := time.Now()
		h.ServeHTTP(w, r)
		per = append(per, float64(time.Since(t))/lines)
		end()
		chk.expect(w.Code == http.StatusOK && bytes.Equal(w.Body.Bytes(), want), "in-process bulk: status %d, %d bytes, want %d", w.Code, w.Body.Len(), len(want))
	}
	rep.add("server.bulk_ns_per_line", "ns", median(per))
	return nil
}

// reloadLayers prices the delta path against a full snapshot build of
// the same mapping: ApplyDelta from the reduced snapshot to the full
// one, and Server.ReloadDelta (canary included) back and forth.
func reloadLayers(ctx context.Context, f *fixture, rec *recorder, rep *report, chk *checks) error {
	var apply []float64
	for range 3 {
		end := layerSpan(rec, "snapshot.apply_delta")
		t := time.Now()
		s, err := f.redSnap.ApplyDelta(f.toFullD)
		apply = append(apply, ms(time.Since(t)))
		end()
		if err != nil {
			return err
		}
		chk.expect(s.ContentHash() == f.fullHash, "ApplyDelta gave hash %s, want %s", s.ContentHash(), f.fullHash)
	}
	rep.add("snapshot.apply_delta_ms", "ms", median(apply))

	var next atomic.Pointer[mapdiff.Delta]
	srv, err := serve.NewServer(f.fullSnap, serve.Options{
		Logf:        discardLogf,
		Admission:   admissionConfig(nil),
		DeltaSource: func(context.Context) (*mapdiff.Delta, error) { return next.Load(), nil },
	})
	if err != nil {
		return err
	}
	var reloads []float64
	for i := range probeReloads {
		d, hash := f.toReducedD, f.reducedHash
		if i%2 == 1 {
			d, hash = f.toFullD, f.fullHash
		}
		next.Store(d)
		end := layerSpan(rec, "server.reload_delta")
		t := time.Now()
		s, err := srv.ReloadDelta(ctx)
		reloads = append(reloads, ms(time.Since(t)))
		end()
		if err != nil {
			return err
		}
		chk.expect(s.ContentHash() == hash, "ReloadDelta gave hash %s, want %s", s.ContentHash(), hash)
	}
	rep.add("server.reload_delta_ms", "ms", median(reloads))
	return nil
}

// httpLayers serves the full snapshot in-process with
// Server.ServeHandler and sends the workload's open-loop /v1/as traffic
// over loopback twice: untraced, then with a client span per request
// nesting a server-side span from a wrapper around srv.Handler(). The
// wrapper also times Lookup and AppendASBody on the request's ASN.
func httpLayers(ctx context.Context, cfg config, f *fixture, rec *recorder, rep *report, chk *checks) error {
	rate := pointRate
	if cfg.mixed {
		rate = mixedRate
	}
	window := max(time.Second, time.Duration(cfg.seconds)*time.Second/5)
	var untraced, traced []float64
	var late []float64
	for _, r := range []*recorder{nil, rec} {
		rt, lt, err := httpRun(ctx, f, r, rate, window, chk)
		if err != nil {
			return err
		}
		if r == nil {
			untraced = rt
		} else {
			traced, late = rt, lt
		}
	}
	rep.add("http.as_roundtrip_ns", "ns", percentile(traced, 0.5)*1e6)
	rep.add("trace.serve_overhead_ns", "ns", (percentile(traced, 0.5)-percentile(untraced, 0.5))*1e6)
	rep.add("loadgen.late_p99_ms", "ms", percentile(late, 0.99))
	return nil
}

// httpRun is one in-process loopback run; it returns the round-trip
// times (send to last byte, in ms) and the lateness of every request.
func httpRun(ctx context.Context, f *fixture, rec *recorder, rate float64, window time.Duration, chk *checks) ([]float64, []float64, error) {
	srv, err := serve.NewServer(f.fullSnap, serve.Options{Logf: discardLogf, Admission: admissionConfig(nil)})
	if err != nil {
		return nil, nil, err
	}
	inner := srv.Handler()
	handler := inner
	if rec != nil {
		snap := f.fullSnap
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			req, _ := strconv.ParseInt(r.Header.Get("X-Request-Id"), 10, 64)
			parent, _ := strconv.ParseInt(r.Header.Get("X-Parent-Span"), 10, 64)
			sp := rec.begin("server.as", parent, req)
			h := rec.begin("server.handler", sp, req)
			inner.ServeHTTP(w, r)
			rec.end(h)
			a, err := asnum.Parse(strings.TrimPrefix(r.URL.Path, "/v1/as/"))
			if err == nil {
				l := rec.begin("snapshot.lookup", sp, req)
				_ = snap.Lookup(a)
				rec.end(l)
				b := rec.begin("snapshot.as_body", sp, req)
				_, _ = snap.AppendASBody(nil, a)
				rec.end(b)
			}
			rec.end(sp)
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	sctx, stop := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- srv.ServeHandler(sctx, ln, handler) }()
	defer func() {
		stop()
		<-served
	}()

	base := "http://" + ln.Addr().String()
	var clients [2]*http.Client
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
		defer clients[i].CloseIdleConnections()
	}
	var mu sync.Mutex
	var rtts []float64
	sched := newSchedule(time.Now().Add(5*time.Millisecond), rate, window)
	res := openLoop(ctx, sched, 2, func(w int, i int64) (int, bool) {
		a := f.keys[i%int64(len(f.keys))]
		r, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/as/"+strconv.FormatUint(uint64(a), 10), nil)
		r.Header.Set("X-Api-Key", apiKey(i))
		var sp int64
		if rec != nil {
			req := reqIDs.Add(1)
			rec.record("loadgen.late", 0, req, sched.due(i), time.Now())
			sp = rec.begin("http.as", 0, req)
			r.Header.Set("X-Request-Id", strconv.FormatInt(req, 10))
			r.Header.Set("X-Parent-Span", strconv.FormatInt(sp, 10))
		}
		t := time.Now()
		resp, err := clients[w].Do(r)
		var body []byte
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		rtt := time.Since(t)
		rec.end(sp)
		mu.Lock()
		rtts = append(rtts, ms(rtt))
		mu.Unlock()
		want, _ := f.fullSnap.AppendASBody(nil, a)
		ok := err == nil && resp.StatusCode == http.StatusOK && bytes.Equal(body, want)
		if ok {
			chk.pass(1)
		} else {
			chk.fail(1, "in-process GET /v1/as/%d: err %v", a, err)
		}
		return kindAS, ok
	})
	return rtts, res.late, nil
}
