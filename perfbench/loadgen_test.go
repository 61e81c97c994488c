package main

import (
	"context"
	"slices"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
)

func TestScheduleIsOpenLoop(t *testing.T) {
	start := time.Unix(1000, 0)
	s := newSchedule(start, 20000, 10*time.Second)
	if s.n != 200000 {
		t.Fatalf("20k rps over 10s schedules %d requests, want 200000", s.n)
	}
	for _, i := range []int64{0, 1, 7, 199999} {
		if got, want := s.due(i), start.Add(time.Duration(i)*50*time.Microsecond); !got.Equal(want) {
			t.Errorf("due(%d) = %v, want %v", i, got.Sub(start), want.Sub(start))
		}
	}
	// A rate that does not divide a second evenly must not drift.
	s = newSchedule(start, 3000, time.Second)
	if got := s.due(3000).Sub(start); got < time.Second-time.Microsecond || got > time.Second+time.Microsecond {
		t.Errorf("request 3000 at 3000 rps due after %v, want 1s", got)
	}
}

func TestWaitUntilNeverEarly(t *testing.T) {
	for _, d := range []time.Duration{0, 50 * time.Microsecond, 300 * time.Microsecond, 3 * time.Millisecond} {
		due := time.Now().Add(d)
		waitUntil(due)
		if now := time.Now(); now.Before(due) {
			t.Errorf("waitUntil(+%v) returned %v early", d, due.Sub(now))
		}
	}
}

// TestOpenLoopChargesStalls stalls one request for 10 ms in a 1 ms
// schedule with one worker. The requests due during the stall are sent
// late, and their latency counts from their due times, not from when
// they were finally sent.
func TestOpenLoopChargesStalls(t *testing.T) {
	s := newSchedule(time.Now().Add(time.Millisecond), 1000, 20*time.Millisecond)
	res := openLoop(context.Background(), s, 1, func(_ int, i int64) (int, bool) {
		if i == 5 {
			time.Sleep(10 * time.Millisecond)
		}
		return kindAS, i != 3
	})
	if got := len(res.latency[kindAS]); got != 20 {
		t.Fatalf("recorded %d requests, want 20", got)
	}
	if res.ok[kindAS] != 19 || res.failed[kindAS] != 1 {
		t.Errorf("ok %d failed %d, want 19 and 1", res.ok[kindAS], res.failed[kindAS])
	}
	lateByMS := func(xs []float64, limit float64) int {
		n := 0
		for _, x := range xs {
			if x >= limit {
				n++
			}
		}
		return n
	}
	// Requests 6..10 were due 9..5 ms before the stall ended.
	if n := lateByMS(res.late, 4); n < 5 {
		t.Errorf("%d requests sent >= 4ms late after a 10ms stall, want >= 5 (late: %v)", n, res.late)
	}
	if n := lateByMS(res.latency[kindAS], 4); n < 6 {
		t.Errorf("%d requests with latency >= 4ms from due, want >= 6 (latency: %v)", n, res.latency[kindAS])
	}
}

func TestZipfKeysSeeded(t *testing.T) {
	asns := make([]asnum.ASN, 1000)
	for i := range asns {
		asns[i] = asnum.ASN(64512 + i)
	}
	a, b := zipfKeys(asns, 1.1, 1, 5000), zipfKeys(asns, 1.1, 1, 5000)
	c := zipfKeys(asns, 1.1, 2, 5000)
	counts := make(map[asnum.ASN]int)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed drew different keys at %d", i)
		}
		same = same && a[i] == c[i]
		counts[a[i]]++
	}
	if same {
		t.Error("seeds 1 and 2 drew the same keys")
	}
	top := 0
	for _, n := range counts {
		top = max(top, n)
	}
	if top < 5000/20 {
		t.Errorf("hottest key drawn %d of 5000 times; a Zipf draw should concentrate", top)
	}
}

func TestAPIKeysStayUnderAdmissionCaps(t *testing.T) {
	// borgesd defaults: 50 requests/s per key, at most 4096 tracked keys.
	if len(apiKeys) > 4096 {
		t.Fatalf("%d keys exceed the admission bucket cap", len(apiKeys))
	}
	if perKey := pointRate / float64(len(apiKeys)); perKey > 50 {
		t.Errorf("%.1f requests/s per key at %v rps exceed the default rate limit", perKey, pointRate)
	}
	seen := make(map[string]bool)
	for i := range int64(len(apiKeys)) {
		seen[apiKey(i)] = true
	}
	if len(seen) != len(apiKeys) {
		t.Errorf("rotation reaches %d distinct keys, want %d", len(seen), len(apiKeys))
	}
}

func TestRoundsStartAtDifferentInputs(t *testing.T) {
	for _, n := range []int{1 << 20, 4096, 93516} {
		seen := make(map[int64]bool)
		for r := range rounds {
			s := &session{round: r}
			at := s.start(n)
			if at < 0 || at >= int64(n) || seen[at] {
				t.Errorf("round %d of %d starts at %d of %d inputs, repeating or out of range", r, rounds, at, n)
			}
			seen[at] = true
		}
	}
}

func TestDistinctKeysIsSeededPermutation(t *testing.T) {
	asns := make([]asnum.ASN, 1000)
	for i := range asns {
		asns[i] = asnum.ASN(64512 + i)
	}
	a, b, c := distinctKeys(asns, 1), distinctKeys(asns, 1), distinctKeys(asns, 2)
	seen := make(map[asnum.ASN]bool)
	for i, k := range a {
		if k != b[i] {
			t.Fatalf("same seed gave different orders at %d", i)
		}
		seen[k] = true
	}
	if len(seen) != len(asns) {
		t.Errorf("%d distinct keys of %d", len(seen), len(asns))
	}
	if slices.Equal(a, c) || slices.Equal(a, asns) {
		t.Error("order does not depend on the seed")
	}
}
