package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one request
// (or of the one traced build) share Req; Parent is 0 for a root.
type span struct {
	ID     int64
	Parent int64
	Req    int64
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, which is how the untraced comparison runs share the
// traced code.
type recorder struct {
	epoch time.Time
	limit int

	mu    sync.Mutex
	spans []span
	open  map[int64]int // span ID -> index in spans
	next  int64
}

// newRecorder returns a recorder that keeps at most limit spans, so a
// long serving run cannot grow it without bound; spans past the limit
// are dropped whole.
func newRecorder(limit int) *recorder {
	return &recorder{epoch: time.Now(), limit: limit, open: make(map[int64]int)}
}

// begin opens a span and returns its ID (0 when nothing is recorded).
func (r *recorder) begin(name string, parent, req int64) int64 {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.limit {
		return 0
	}
	r.next++
	r.open[r.next] = len(r.spans)
	r.spans = append(r.spans, span{ID: r.next, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return r.next
}

// end closes the span id opened by begin.
func (r *recorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.open[id]; ok {
		r.spans[i].End = now
		delete(r.open, id)
	}
}

// record adds a closed span over [start, end], for an interval whose
// ends were taken before the span could be opened, such as a
// request's due time. It returns the span's ID.
func (r *recorder) record(name string, parent, req int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.limit {
		return 0
	}
	r.next++
	r.spans = append(r.spans, span{ID: r.next, Parent: parent, Req: req, Name: name, Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return r.next
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by at least one child. Children may overlap
// one another (the NER and web chains of a build run side by side), so
// the covered part is the length of the union of the children's
// intervals, clipped to the parent's.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		curStart, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			start, end := max(k.Start, s.Start), min(k.End, s.End)
			if end <= start {
				continue
			}
			if curEnd < 0 || start > curEnd {
				if curEnd > curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = start, end
			} else if end > curEnd {
				curEnd = end
			}
		}
		if curEnd > curStart {
			covered += curEnd - curStart
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// writeSpans writes spans as JSON lines with their self times.
func writeSpans(path string, spans []span) error {
	self := selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(struct {
			ID      int64   `json:"id"`
			Parent  int64   `json:"parent"`
			Req     int64   `json:"req"`
			Name    string  `json:"name"`
			StartUS float64 `json:"start_us"`
			EndUS   float64 `json:"end_us"`
			SelfUS  float64 `json:"self_us"`
		}{s.ID, s.Parent, s.Req, s.Name, us(s.Start), us(s.End), us(self[s.ID])}); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
