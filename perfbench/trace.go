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

// Span is one timed interval recorded around a call into a layer, or
// around one HTTP handler invocation. Times are nanoseconds since the
// tracer was created.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Req is the request ID a client minted; the router's handler span
	// carries it too, because the wrapper reads the client's header.
	Req string `json:"req,omitempty"`
	// Session and Key say which session and routing key a fleet request
	// touched. The router forwards no request ID, so a backend span is
	// linked to the router span that contains it and has the same pair.
	Session string `json:"session,omitempty"`
	Key     string `json:"key,omitempty"`
	// Node names the backend a server-side span ran on.
	Node string `json:"node,omitempty"`
}

func (s *Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs share the traced code path at the cost of a
// nil check.
type Tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []Span
	next  int64
}

func newTracer() *Tracer { return &Tracer{base: time.Now()} }

// since converts a wall time into the tracer's clock (0 on a nil tracer).
func (t *Tracer) since(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(at.Sub(t.base))
}

// add records a finished span under a fresh ID.
func (t *Tracer) add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s.ID = t.next
	t.spans = append(t.spans, s)
}

// record is add for an interval measured by the caller.
func (t *Tracer) record(name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(Span{Name: name, Parent: parent, Start: t.since(start), End: t.since(end)})
}

// reserve allocates an ID for a span whose children finish before it
// does; the caller hands the ID to finish once the span ends.
func (t *Tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *Tracer) finish(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
}

// snapshot returns the spans recorded so far, ordered by start.
func (t *Tracer) snapshot() []Span {
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// writeJSONL writes every span as one JSON object per line.
func (t *Tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// interval is a half-open [start, end) span of tracer time.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may nest inside each other or overlap (parallel
// fan-out); each covered nanosecond is subtracted once, and any part of a
// child outside the parent is ignored.
func selfTime(parent interval, children []interval) time.Duration {
	var clipped []interval
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	curS, curE := int64(0), int64(-1)
	for _, c := range clipped {
		if c.start > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = c.start, c.end
			continue
		}
		curE = max(curE, c.end)
	}
	if curE > curS {
		covered += curE - curS
	}
	return time.Duration(parent.end - parent.start - covered)
}

// linkKey is what a backend span and the router span that caused it have
// in common: the kind of request, its session and its routing key.
type linkKey struct{ kind, session, key string }

// linkable is a span taking part in containment linking. Capacity bounds
// how many backend spans one router span can own: 1 for a proxied query,
// one per loop for an analyze fan-out, one per backend for a broadcast.
type linkable struct {
	span     *Span
	key      linkKey
	capacity int
}

// linkByContainment assigns each child to a parent that contains it in
// time and has the same link key, with no parent taking more children
// than its capacity, linking as many children as any assignment can. When
// two clients send the same request at once, a backend span may fit in
// either router span; a greedy choice can then strand a later span that
// fits in only one, so the assignment is a maximum bipartite matching
// (augmenting paths, with parent capacities). It sets each linked child's
// Parent and returns the children it could not link.
func linkByContainment(parents []linkable, children []linkable) []*Span {
	byKey := map[linkKey][]int{}
	for pi := range parents {
		byKey[parents[pi].key] = append(byKey[parents[pi].key], pi)
	}
	cand := make([][]int, len(children))
	for ci := range children {
		c := children[ci].span
		for _, pi := range byKey[children[ci].key] {
			p := parents[pi]
			if p.capacity > 0 && p.span.Start <= c.Start && c.End <= p.span.End {
				cand[ci] = append(cand[ci], pi)
			}
		}
	}
	owned := make([][]int, len(parents)) // children each parent holds
	seen := make([]int, len(parents))    // DFS generation that visited a parent
	gen := 0
	var place func(ci int) bool
	place = func(ci int) bool {
		for _, pi := range cand[ci] {
			if seen[pi] == gen {
				continue
			}
			seen[pi] = gen
			if len(owned[pi]) < parents[pi].capacity {
				owned[pi] = append(owned[pi], ci)
				return true
			}
			for k, cj := range owned[pi] {
				if place(cj) {
					owned[pi][k] = ci
					return true
				}
			}
		}
		return false
	}
	var orphans []*Span
	for ci := range children {
		gen++
		if !place(ci) {
			orphans = append(orphans, children[ci].span)
		}
	}
	for pi, cs := range owned {
		for _, ci := range cs {
			children[ci].span.Parent = parents[pi].span.ID
		}
	}
	return orphans
}
