package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/serve"
)

// Serving traffic, totals over a run's rounds. The point rate keeps
// the daemon busy, so a lookup's median is not its wake-up latency. The
// mixed rate is lower because that schedule also carries the bulk
// streams and reloads: at 10k and 6k rps it fell behind whenever other
// load slowed the machine down, and the backlog set the median.
const (
	pointRate    = 20000.0 // serve_point: /v1/as requests per second
	mixedRate    = 3000.0  // serve_mixed: requests per second of every kind
	bulkRate     = 40.0    // serve_mixed: /v1/bulk streams per second
	searchRate   = 250.0   // the search probe after a point window
	probeWindow  = 4500 * time.Millisecond
	probeReloads = 24
	coldStarts   = 15
	searchLimit  = 50 // borgesd's default ?limit=
)

// mix is the shape of the serving traffic. No published measurement of
// how often each ASN is looked up, or of how an attribution service's
// queries split between point, search and bulk lookups, was at hand, so
// every field is an assumption. README.md gives how far the gated
// metrics move when each is halved or doubled.
type mix struct {
	zipfS       float64 // Zipf exponent of /v1/as key popularity (> 1); bulk keys are uniform
	searchEvery int64   // serve_mixed: one request in searchEvery is a /v1/search
	orgEvery    int64   // serve_mixed: one in orgEvery is a /v1/org
	bulkLines   int     // lines per /v1/bulk stream
}

var defaultMix = mix{zipfS: 1.1, searchEvery: 40, orgEvery: 20, bulkLines: 8192}

// session drives one borgesd process over two connections, checking
// every response against the benchmark's own in-process snapshots.
type session struct {
	d       *daemon
	f       *fixture
	chk     *checks
	workers [2]*worker
	// snaps[0] is the full mapping borgesd starts on, snaps[1] the
	// reduced one; delta reloads alternate between them.
	snaps [2]*serve.Snapshot
	// gen is even while snaps[(gen/2)%2] is serving, odd while a reload
	// is in flight. A response whose request started and ended in the
	// same even generation must match that snapshot; one that spans a
	// reload may match either.
	gen     atomic.Int64
	auxKey  atomic.Int64
	minOrgs int
	mix     mix
	round   int        // the round being served; see start
	reload1 sync.Mutex // one delta reload at a time
}

// worker is one load-generator goroutine's connection and buffers. The
// bulk buffers are reused across streams so the generator makes little
// garbage: its collector would take CPU from the daemon mid-stream.
type worker struct {
	client       *http.Client
	body         bytes.Buffer
	scratch      []byte
	bulkIn, want []byte
	other        []byte
	bulkASNs     []asnum.ASN
}

func newSession(d *daemon, f *fixture, chk *checks, m mix) *session {
	s := &session{d: d, f: f, chk: chk, mix: m, snaps: [2]*serve.Snapshot{f.fullSnap, f.redSnap}}
	s.minOrgs = min(f.fullSnap.Mapping().NumOrgs(), f.redSnap.Mapping().NumOrgs())
	for i := range s.workers {
		s.workers[i] = &worker{client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}}
	}
	return s
}

func (s *session) close() {
	for _, w := range s.workers {
		w.client.CloseIdleConnections()
	}
}

func (s *session) nextAuxKey() string { return apiKey(s.auxKey.Add(1)) }

// start is where the current round begins in an input list of n
// entries: round r of the run starts r/rounds of the way through it, so
// each round sends different keys, tokens and organizations.
func (s *session) start(n int) int64 { return int64(s.round) * int64(n) / rounds }

// do sends one request on worker w's connection and reads the whole
// body into the worker's buffer.
func (s *session) do(ctx context.Context, w int, method, path, key string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Api-Key", key)
	resp, err := s.workers[w].client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf := &s.workers[w].body
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// matches reports whether got is the response the snapshot serving
// between generations g0 and g1 would give, rendered by want.
func (s *session) matches(g0, g1 int64, got []byte, want func(*serve.Snapshot) []byte) bool {
	if g0 == g1 && g0%2 == 0 {
		return bytes.Equal(got, want(s.snaps[(g0/2)%2]))
	}
	return bytes.Equal(got, want(s.snaps[0])) || bytes.Equal(got, want(s.snaps[1]))
}

func (s *session) getAS(ctx context.Context, w int, a asnum.ASN, key string) bool {
	g0 := s.gen.Load()
	status, got, err := s.do(ctx, w, http.MethodGet, "/v1/as/"+strconv.FormatUint(uint64(a), 10), key, nil)
	g1 := s.gen.Load()
	wk := s.workers[w]
	ok := err == nil && status == http.StatusOK && s.matches(g0, g1, got, func(snap *serve.Snapshot) []byte {
		wk.scratch, _ = snap.AppendASBody(wk.scratch[:0], a)
		return wk.scratch
	})
	if ok {
		s.chk.pass(1)
	} else {
		s.chk.fail(1, "GET /v1/as/%d: status %d, err %v, body %.120q", a, status, err, got)
	}
	return ok
}

func (s *session) getOrg(ctx context.Context, w int, id int, key string) bool {
	g0 := s.gen.Load()
	status, got, err := s.do(ctx, w, http.MethodGet, "/v1/org/"+strconv.Itoa(id), key, nil)
	g1 := s.gen.Load()
	ok := err == nil && status == http.StatusOK && s.matches(g0, g1, got, func(snap *serve.Snapshot) []byte {
		return snap.OrgBody(id)
	})
	if ok {
		s.chk.pass(1)
	} else {
		s.chk.fail(1, "GET /v1/org/%d: status %d, err %v, body %.120q", id, status, err, got)
	}
	return ok
}

// searchReply is the part of a /v1/search response the check compares.
type searchReply struct {
	Brownout bool `json:"brownout"`
	Matches  []struct {
		Org  int `json:"org"`
		Size int `json:"size"`
	} `json:"matches"`
}

func (s *session) getSearch(ctx context.Context, w int, q, key string) bool {
	g0 := s.gen.Load()
	status, got, err := s.do(ctx, w, http.MethodGet, "/v1/search?name="+url.QueryEscape(q), key, nil)
	g1 := s.gen.Load()
	var reply searchReply
	ok := err == nil && status == http.StatusOK && json.Unmarshal(got, &reply) == nil
	if ok {
		same := func(snap *serve.Snapshot) bool {
			var want []*cluster.Cluster
			if reply.Brownout {
				want = snap.SearchBrownout(q, len(reply.Matches))
			} else {
				want = snap.Search(q, searchLimit)
			}
			if len(want) != len(reply.Matches) {
				return false
			}
			for i, c := range want {
				if c.ID != reply.Matches[i].Org || c.Size() != reply.Matches[i].Size {
					return false
				}
			}
			return true
		}
		if g0 == g1 && g0%2 == 0 {
			ok = same(s.snaps[(g0/2)%2])
		} else {
			ok = same(s.snaps[0]) || same(s.snaps[1])
		}
	}
	if ok {
		s.chk.pass(1)
	} else {
		s.chk.fail(1, "GET /v1/search?name=%s: status %d, err %v, body %.120q", q, status, err, got)
	}
	return ok
}

// bulk streams one /v1/bulk request of the mix's bulkLines ASNs, the
// next ones of the fixture's bulk keys, and checks that every output
// line is one snapshot's body for its ASN.
// borgesd pins one snapshot per stream, so a stream that spans a reload
// must match one of the two mappings whole.
func (s *session) bulk(ctx context.Context, w int, stream int64) (lines int, d time.Duration, ok bool) {
	keys, wk, bulkLines := s.f.bulkKeys, s.workers[w], int64(s.mix.bulkLines)
	wk.bulkIn, wk.bulkASNs = wk.bulkIn[:0], wk.bulkASNs[:0]
	first := s.start(len(keys)) + stream*bulkLines
	for j := range bulkLines {
		a := keys[(first+j)%int64(len(keys))]
		wk.bulkASNs = append(wk.bulkASNs, a)
		wk.bulkIn = strconv.AppendUint(wk.bulkIn, uint64(a), 10)
		wk.bulkIn = append(wk.bulkIn, '\n')
	}
	g0 := s.gen.Load()
	start := time.Now()
	status, got, err := s.do(ctx, w, http.MethodPost, "/v1/bulk", s.nextAuxKey(), wk.bulkIn)
	d = time.Since(start)
	g1 := s.gen.Load()
	render := func(dst []byte, snap *serve.Snapshot) []byte {
		dst = dst[:0]
		for _, a := range wk.bulkASNs {
			dst, _ = snap.AppendASBody(dst, a)
		}
		return dst
	}
	ok = err == nil && status == http.StatusOK
	if ok {
		if g0 == g1 && g0%2 == 0 {
			wk.want = render(wk.want, s.snaps[(g0/2)%2])
			ok = bytes.Equal(got, wk.want)
		} else {
			wk.want, wk.other = render(wk.want, s.snaps[0]), render(wk.other, s.snaps[1])
			ok = bytes.Equal(got, wk.want) || bytes.Equal(got, wk.other)
		}
	}
	s.chk.expectN(int(bulkLines), ok, "POST /v1/bulk stream %d: status %d, err %v, %d bytes", stream, status, err, len(got))
	return int(bulkLines), d, ok
}

// reload installs the delta to the other mapping, posts a delta
// reload, and checks that the reply and /v1/stats both report the
// target snapshot's content hash.
func (s *session) reload(ctx context.Context, w int) (time.Duration, bool) {
	s.reload1.Lock()
	defer s.reload1.Unlock()
	target := 1 - (s.gen.Load()/2)%2
	delta, hash := s.f.toReduced, s.f.reducedHash
	if target == 0 {
		delta, hash = s.f.toFull, s.f.fullHash
	}
	if err := s.f.writeDelta(delta); err != nil {
		s.chk.expect(false, "writing delta: %v", err)
		return 0, false
	}
	s.gen.Add(1)
	start := time.Now()
	status, got, err := s.do(ctx, w, http.MethodPost, "/admin/reload?mode=delta", s.nextAuxKey(), nil)
	d := time.Since(start)
	s.gen.Add(1)
	var reply struct {
		ContentHash string `json:"content_hash"`
	}
	ok := err == nil && status == http.StatusOK && json.Unmarshal(got, &reply) == nil && reply.ContentHash == hash
	s.chk.expect(ok, "delta reload: status %d, err %v, body %.200q, want hash %s", status, err, got, hash)
	status, got, err = s.do(ctx, w, http.MethodGet, "/v1/stats", s.nextAuxKey(), nil)
	reply.ContentHash = ""
	statsOK := err == nil && status == http.StatusOK && json.Unmarshal(got, &reply) == nil && reply.ContentHash == hash
	s.chk.expect(statsOK, "/v1/stats after delta reload: status %d, err %v, content_hash %q, want %s", status, err, reply.ContentHash, hash)
	return d, ok && statsOK
}

// serveResult collects the serving metrics of every round of a run.
// Latencies and lateness are in milliseconds.
type serveResult struct {
	asLat, searchLat, late []float64
	cpu                    time.Duration // daemon CPU over the open-loop traffic windows
	offered                time.Duration // those windows' scheduled length
	requests               int64         // HTTP requests answered in them, a bulk stream or reload counting one
	bulkLines              int64
	bulkTime               time.Duration
	reloads                []float64 // ms
	coldStarts             []float64 // ms
	rssMB                  float64   // the serving daemon's VmHWM at the end
}

func (r *serveResult) addLoad(l *loadResult) {
	r.asLat = append(r.asLat, l.latency[kindAS]...)
	r.searchLat = append(r.searchLat, l.latency[kindSearch]...)
	r.late = append(r.late, l.late...)
}

// measuredWindow runs one open-loop schedule of the workload's traffic
// and charges the daemon's CPU over it to the window's scheduled
// length and to the requests answered.
func (s *session) measuredWindow(ctx context.Context, rate float64, window time.Duration, res *serveResult, do func(w int, i int64) (int, bool)) error {
	cpu0, err := cpuTime(s.d.pid())
	if err != nil {
		return err
	}
	sched := newSchedule(time.Now().Add(5*time.Millisecond), rate, window)
	load := openLoop(ctx, sched, 2, do)
	cpu1, err := cpuTime(s.d.pid())
	if err != nil {
		return err
	}
	res.addLoad(load)
	res.cpu += cpu1 - cpu0
	res.offered += time.Duration(float64(sched.n) * sched.step)
	for _, n := range load.ok {
		res.requests += n
	}
	return nil
}

// pointWindow runs open-loop /v1/as traffic from both workers.
func (s *session) pointWindow(ctx context.Context, window time.Duration, res *serveResult) error {
	keys := s.f.keys
	first := s.start(len(keys))
	return s.measuredWindow(ctx, pointRate, window, res, func(w int, i int64) (int, bool) {
		return kindAS, s.getAS(ctx, w, keys[(first+i)%int64(len(keys))], apiKey(i))
	})
}

// probeRest measures, after a point window, the paths that window left
// idle: search latency, bulk throughput and delta reload time.
func (s *session) probeRest(ctx context.Context, window time.Duration, reloads int, res *serveResult) {
	tokens := s.f.tokens
	first := s.start(len(tokens))
	sched := newSchedule(time.Now().Add(5*time.Millisecond), searchRate, window)
	res.addLoad(openLoop(ctx, sched, 1, func(w int, i int64) (int, bool) {
		return kindSearch, s.getSearch(ctx, w, tokens[(first+i)%int64(len(tokens))], apiKey(i))
	}))
	var streamed time.Duration
	for i := int64(0); streamed < window && ctx.Err() == nil; i++ {
		n, d, _ := s.bulk(ctx, 1, i)
		res.bulkLines += int64(n)
		streamed += d
	}
	res.bulkTime += streamed
	for range reloads {
		d, _ := s.reload(ctx, 1)
		res.reloads = append(res.reloads, ms(d))
	}
}

// mixedWindow runs serve_mixed: both workers send one open-loop
// schedule in which, every second, 40 slots are /v1/bulk streams and
// one is a delta reload; of the other requests, the mix sets the share
// of searches and org lookups, and the rest are /v1/as. A worker busy
// with a stream or a reload leaves the point traffic to the other, so
// the slow paths contend with the reads. The bulk streams are paced, not back to back: back to
// back they kept both CPUs busy, and the point median swung by half
// from run to run with the kernel's split of CPU between generator and
// daemon.
func (s *session) mixedWindow(ctx context.Context, window time.Duration, res *serveResult) error {
	keys, tokens, m := s.f.keys, s.f.tokens, s.mix
	firstKey, firstToken, firstOrg := s.start(len(keys)), s.start(len(tokens)), s.start(s.minOrgs)
	const (
		reloadEvery = int64(mixedRate)            // one reload per second
		bulkEvery   = int64(mixedRate / bulkRate) // slots between bulk streams
	)
	var parts [2]struct {
		lines   int64
		streams time.Duration
		reloads []float64
	}
	err := s.measuredWindow(ctx, mixedRate, window, res, func(w int, i int64) (int, bool) {
		switch {
		case i%reloadEvery == reloadEvery/2:
			d, ok := s.reload(ctx, w)
			parts[w].reloads = append(parts[w].reloads, ms(d))
			return kindReload, ok
		case i%bulkEvery == bulkEvery/3:
			n, d, ok := s.bulk(ctx, w, i/bulkEvery)
			parts[w].streams += d
			if ok {
				parts[w].lines += int64(n)
			}
			return kindBulk, ok
		case i%m.searchEvery == 0:
			return kindSearch, s.getSearch(ctx, w, tokens[(firstToken+i/m.searchEvery)%int64(len(tokens))], apiKey(i))
		case i%m.orgEvery == m.orgEvery/2:
			return kindOrg, s.getOrg(ctx, w, int((firstOrg+i/m.orgEvery*7919)%int64(s.minOrgs)), apiKey(i))
		}
		return kindAS, s.getAS(ctx, w, keys[(firstKey+i)%int64(len(keys))], apiKey(i))
	})
	if err != nil {
		return err
	}
	for _, p := range parts {
		res.bulkLines += p.lines
		res.bulkTime += p.streams
		res.reloads = append(res.reloads, p.reloads...)
	}
	return nil
}

// coldStartsOnce starts borgesd on the full artifact n times, timing
// each start to its first healthy answer, and stops each again.
func coldStartsOnce(ctx context.Context, cfg config, f *fixture, chk *checks, n int, res *serveResult) error {
	for range n {
		d, cold, err := startDaemon(ctx, cfg.borgesd, "-snapshot-in", f.full, "-delta-in", f.deltaPath)
		chk.expect(err == nil, "starting borgesd: %v", err)
		if err != nil {
			return err
		}
		res.coldStarts = append(res.coldStarts, ms(cold))
		d.stop()
	}
	return nil
}

// serveRound runs one round of the workload's traffic on the session's
// daemon: serve_mixed for the window, or serve_point for the window
// followed by a probe of the paths it leaves idle. Each round starts at
// a new place in the request inputs (see start).
func (s *session) serveRound(ctx context.Context, cfg config, window time.Duration, round int, res *serveResult) error {
	s.round = round
	if cfg.mixed {
		return s.mixedWindow(ctx, window, res)
	}
	if err := s.pointWindow(ctx, window, res); err != nil {
		return err
	}
	s.probeRest(ctx, probeWindow/rounds, probeReloads/rounds, res)
	return nil
}

// addServeMetrics reports the end-to-end serving metrics.
func addServeMetrics(rep *report, res *serveResult) {
	rep.add("cold_start_ms", "ms", median(res.coldStarts))
	rep.add("serve_rss_mb", "MB", res.rssMB)
	rep.add("as_p50_ms", "ms", percentile(res.asLat, 0.50))
	rep.add("as_p99_ms", "ms", percentile(res.asLat, 0.99))
	rep.add("serve_cpu_ms_per_s", "ms/s", ms(res.cpu)/max(res.offered.Seconds(), 1e-9))
	rep.add("as_cpu_us_per_req", "us", float64(res.cpu)/1e3/float64(max(res.requests, 1)))
	rep.add("search_p50_ms", "ms", percentile(res.searchLat, 0.50))
	rep.add("bulk_lines_per_s", "1/s", float64(res.bulkLines)/max(res.bulkTime.Seconds(), 1e-9))
	rep.add("reload_ms", "ms", median(res.reloads))
	rep.note("as requests", fmt.Sprintf("%d (p99 has %d samples beyond it)", len(res.asLat), len(res.asLat)/100))
	rep.note("search requests", strconv.Itoa(len(res.searchLat)))
	rep.note("delta reloads", strconv.Itoa(len(res.reloads)))
	rep.note("loadgen late p99 (ms)", fmt.Sprintf("%.4f", percentile(res.late, 0.99)))
}
