package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	p := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"one child", []interval{{120, 150}}, 70},
		{"disjoint children", []interval{{110, 120}, {150, 170}}, 70},
		{"nested children count once", []interval{{110, 190}, {120, 130}, {150, 180}}, 20},
		{"overlapping children (fan-out)", []interval{{110, 160}, {140, 180}}, 30},
		{"touching children", []interval{{110, 130}, {130, 150}}, 60},
		{"child sticking out is clipped", []interval{{90, 120}, {190, 230}}, 70},
		{"child outside is ignored", []interval{{10, 50}, {200, 260}}, 100},
		{"fully covered", []interval{{100, 150}, {120, 200}}, 0},
	} {
		if got := selfTime(p, tc.children); got != tc.want {
			t.Errorf("%s: self = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestLinkByContainment(t *testing.T) {
	q := linkKey{"query", "s1", "k"}
	a := linkKey{"analyze", "s1", "a|L"}
	router := []Span{
		{ID: 1, Start: 0, End: 100},   // query, client 0
		{ID: 2, Start: 10, End: 60},   // same query, client 1, inside span 1
		{ID: 3, Start: 200, End: 300}, // analyze with two loops
	}
	parents := []linkable{
		{span: &router[0], key: q, capacity: 1},
		{span: &router[1], key: q, capacity: 1},
		{span: &router[2], key: a, capacity: 2},
	}
	backend := []Span{
		{ID: 10, Start: 20, End: 50},   // contained by 1 and 2: the tighter one wins
		{ID: 11, Start: 70, End: 90},   // only 1 contains it
		{ID: 12, Start: 210, End: 250}, // fan-out part
		{ID: 13, Start: 220, End: 290}, // fan-out part
		{ID: 14, Start: 230, End: 240}, // over the analyze's capacity
		{ID: 15, Start: 20, End: 50},   // right time, wrong key
	}
	children := []linkable{
		{span: &backend[0], key: q}, {span: &backend[1], key: q},
		{span: &backend[2], key: a}, {span: &backend[3], key: a},
		{span: &backend[4], key: a}, {span: &backend[5], key: linkKey{"query", "s2", "k"}},
	}
	orphans := linkByContainment(parents, children)
	want := map[int64]int64{10: 2, 11: 1, 12: 3, 13: 3, 14: 0, 15: 0}
	for _, s := range backend {
		if s.Parent != want[s.ID] {
			t.Errorf("span %d linked to %d, want %d", s.ID, s.Parent, want[s.ID])
		}
	}
	if len(orphans) != 2 || orphans[0].ID+orphans[1].ID != 14+15 {
		t.Errorf("orphans = %v, want spans 14 and 15", orphans)
	}
}

// Two clients send the same request at once. The first backend span fits
// in both router spans, the second only in the later one; the first must
// go to the router span that ends first, or the second is left over.
func TestLinkByContainmentOverlappingDuplicates(t *testing.T) {
	k := linkKey{"analyze", "s3", "CAF"}
	router := []Span{{ID: 1, Start: 4465, End: 6215}, {ID: 2, Start: 4999, End: 6754}}
	backend := []Span{{ID: 10, Start: 5383, End: 5859}, {ID: 11, Start: 6029, End: 6468}}
	orphans := linkByContainment(
		[]linkable{{span: &router[0], key: k, capacity: 1}, {span: &router[1], key: k, capacity: 1}},
		[]linkable{{span: &backend[0], key: k}, {span: &backend[1], key: k}})
	if len(orphans) != 0 || backend[0].Parent != 1 || backend[1].Parent != 2 {
		t.Errorf("linked %d->%d and %d->%d with %d orphans; want 10->1, 11->2, none",
			backend[0].ID, backend[0].Parent, backend[1].ID, backend[1].Parent, len(orphans))
	}
}
