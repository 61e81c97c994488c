package main

import (
	"testing"
	"time"
)

func TestSelfTimesOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "build", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "parse", Start: 0, End: 10 * ms},
		// The NER and web chains run side by side.
		{ID: 3, Parent: 1, Name: "ner.chain", Start: 10 * ms, End: 40 * ms},
		{ID: 4, Parent: 1, Name: "web.chain", Start: 15 * ms, End: 80 * ms},
		{ID: 5, Parent: 4, Name: "crawl", Start: 15 * ms, End: 60 * ms},
		{ID: 6, Parent: 4, Name: "rr", Start: 60 * ms, End: 70 * ms},
		{ID: 7, Parent: 1, Name: "consolidate", Start: 85 * ms, End: 95 * ms},
		// A child reaching past its parent is clipped to it.
		{ID: 8, Parent: 3, Name: "extract", Start: 20 * ms, End: 50 * ms},
	}
	got := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 100*ms - 80*ms - 10*ms, // children cover 0-80 and 85-95
		2: 10 * ms,
		3: 10 * ms, // extract covers 20-40 of 10-40
		4: 10 * ms, // crawl and rr cover 15-70 of 15-80
		5: 45 * ms,
		6: 10 * ms,
		7: 10 * ms,
		8: 30 * ms,
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
}

func TestRecorder(t *testing.T) {
	var none *recorder
	if id := none.begin("x", 0, 1); id != 0 {
		t.Errorf("nil recorder returned span %d", id)
	}
	none.end(0)
	if none.snapshot() != nil {
		t.Error("nil recorder kept spans")
	}

	r := newRecorder(3)
	root := r.begin("req", 0, 7)
	child := r.begin("handler", root, 7)
	r.end(child)
	r.end(root)
	r.end(r.begin("lookup", root, 7))
	if id := r.begin("dropped", root, 7); id != 0 {
		t.Errorf("recorder past its limit returned span %d", id)
	}
	spans := r.snapshot()
	if len(spans) != 3 {
		t.Fatalf("kept %d spans, want 3", len(spans))
	}
	for _, s := range spans {
		if s.Req != 7 || s.End < s.Start {
			t.Errorf("span %+v: want request 7 and end >= start", s)
		}
	}
	if spans[1].Parent != root || spans[2].Parent != root {
		t.Errorf("children's parents = %d, %d, want %d", spans[1].Parent, spans[2].Parent, root)
	}
	if spans[0].End < spans[1].End {
		t.Errorf("root ended at %v before its child at %v", spans[0].End, spans[1].End)
	}
}

func TestRecorderRecordKeepsGivenInterval(t *testing.T) {
	r := newRecorder(2)
	due := r.epoch.Add(5 * time.Millisecond)
	sent := due.Add(300 * time.Microsecond)
	id := r.record("loadgen.late", 0, 9, due, sent)
	if id == 0 {
		t.Fatal("record returned no span")
	}
	r.end(r.begin("http.as", 0, 9))
	if id := r.record("dropped", 0, 9, due, sent); id != 0 {
		t.Errorf("recorder past its limit returned span %d", id)
	}
	s := r.snapshot()[0]
	if s.ID != id || s.Req != 9 || s.Start != 5*time.Millisecond || s.dur() != 300*time.Microsecond {
		t.Errorf("recorded %+v, want [5ms, 5.3ms] in request 9", s)
	}
}
