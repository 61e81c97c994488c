package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
)

// schedule is an open-loop arrival process: request i is due at
// start + i/rate however long earlier requests took, so a stalled
// server faces a growing backlog instead of receiving less load.
type schedule struct {
	start time.Time
	step  float64 // nanoseconds between due times
	n     int64   // requests due inside the window
}

func newSchedule(start time.Time, rate float64, window time.Duration) schedule {
	step := float64(time.Second) / rate
	return schedule{start: start, step: step, n: int64(float64(window) / step)}
}

func (s schedule) due(i int64) time.Time {
	return s.start.Add(time.Duration(float64(i) * s.step))
}

// sleepSlack is how far short of a due time the pacer stops sleeping.
// time.Sleep cannot pace: below a millisecond it oversleeps to about
// 1 ms on Linux, far more than a loopback request costs. nanosleep(2)
// wakes about 53 µs late (the kernel's default 50 µs timer slack), so
// the pacer sleeps with it until sleepSlack before the due time and
// yields for the rest. A generator that only spun would hold a CPU the
// daemon under test needs.
const sleepSlack = 80 * time.Microsecond

// waitUntil returns at or just after due.
func waitUntil(due time.Time) {
	if d := time.Until(due) - sleepSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		// An interrupted sleep only ends early; the loop below covers it.
		_ = syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// Request kinds recorded by the load generator.
const (
	kindAS = iota
	kindOrg
	kindSearch
	kindBulk
	kindReload
	numKinds
)

// loadResult is what one open-loop run observed. Latencies and
// lateness are in milliseconds, measured from each request's due time,
// so a stall is charged to every request it delayed.
type loadResult struct {
	latency [numKinds][]float64
	late    []float64
	ok      [numKinds]int64
	failed  [numKinds]int64
}

// openLoop issues s.n requests from workers goroutines. Each worker
// takes the next request index, waits for its due time and calls do,
// which sends the request on the worker's own connection and reports
// its kind and whether the response was correct. A request whose due
// time passed while both workers were busy is sent late; its latency
// still counts from the due time.
func openLoop(ctx context.Context, s schedule, workers int, do func(worker int, i int64) (kind int, ok bool)) *loadResult {
	var next atomic.Int64
	parts := make([]loadResult, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			part := &parts[w]
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= s.n {
					return
				}
				due := s.due(i)
				waitUntil(due)
				sent := time.Now()
				kind, ok := do(w, i)
				done := time.Now()
				part.late = append(part.late, ms(sent.Sub(due)))
				part.latency[kind] = append(part.latency[kind], ms(done.Sub(due)))
				if ok {
					part.ok[kind]++
				} else {
					part.failed[kind]++
				}
			}
		}(w)
	}
	wg.Wait()
	out := &loadResult{}
	for _, p := range parts {
		out.late = append(out.late, p.late...)
		for k := range numKinds {
			out.latency[k] = append(out.latency[k], p.latency[k]...)
			out.ok[k] += p.ok[k]
			out.failed[k] += p.failed[k]
		}
	}
	return out
}

// zipfKeys draws n ASNs with Zipf popularity (exponent s > 1) over a
// seeded permutation of asns, so the hot keys differ from seed to seed.
func zipfKeys(asns []asnum.ASN, s float64, seed int64, n int) []asnum.ASN {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(asns))
	z := rand.NewZipf(rng, s, 1, uint64(len(asns)-1))
	out := make([]asnum.ASN, n)
	for i := range out {
		out[i] = asns[perm[z.Uint64()]]
	}
	return out
}

// distinctKeys returns every ASN of asns once, in a seeded order, for
// the bulk streams: a client resolving a list of networks sends each
// once, however popular it is. The order comes from a random stream of
// its own, not the one zipfKeys draws from.
func distinctKeys(asns []asnum.ASN, seed int64) []asnum.ASN {
	rng := rand.New(rand.NewSource(^seed))
	out := make([]asnum.ASN, len(asns))
	for i, j := range rng.Perm(len(asns)) {
		out[i] = asns[j]
	}
	return out
}

// apiKeys are the X-Api-Key values requests rotate through. borgesd
// rate-limits each key to 50 requests/s (burst 100) and tracks at most
// 4096 keys; 2048 keys keep every key near 10 requests/s at 20k rps,
// and the daemon never refuses a benchmark request for its rate.
var apiKeys = func() []string {
	keys := make([]string, 2048)
	for i := range keys {
		keys[i] = fmt.Sprintf("perfbench-%04d", i)
	}
	return keys
}()

func apiKey(i int64) string { return apiKeys[i%int64(len(apiKeys))] }
