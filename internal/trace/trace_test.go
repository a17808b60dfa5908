package trace

import (
	"bytes"
	"strings"
	"testing"

	"scaf/internal/core"
	"scaf/internal/ir"
)

// stubModule is a minimal core.Module for exercising the tracer.
type stubModule struct {
	name   string
	alias  func(q *core.AliasQuery, h core.Handle) core.AliasResponse
	modref func(q *core.ModRefQuery, h core.Handle) core.ModRefResponse
}

func (m *stubModule) Name() string          { return m.name }
func (m *stubModule) Kind() core.ModuleKind { return core.MemoryAnalysis }
func (m *stubModule) Alias(q *core.AliasQuery, h core.Handle) core.AliasResponse {
	if m.alias != nil {
		return m.alias(q, h)
	}
	return core.MayAliasResponse()
}
func (m *stubModule) ModRef(q *core.ModRefQuery, h core.Handle) core.ModRefResponse {
	if m.modref != nil {
		return m.modref(q, h)
	}
	return core.ModRefConservative()
}

// fixture builds an orchestrator whose resolutions exercise premises,
// cycle breaks, depth limits, and the memo cache, with a Collector
// attached.
func fixture() (*core.Orchestrator, *Collector, []*core.AliasQuery) {
	p1, p2 := ir.CI(1), ir.CI(2)
	mkq := func(size int64) *core.AliasQuery {
		return &core.AliasQuery{
			L1: core.MemLoc{Ptr: p1, Size: size},
			L2: core.MemLoc{Ptr: p2, Size: size},
		}
	}
	// asker resolves size-n by a premise on size-(n+1); size 6 is proven
	// directly but sits beyond MaxDepth 3 from a size-1 start (the chain is
	// truncated at depth 4); size 9 premises on itself (a cycle).
	asker := &stubModule{name: "asker"}
	asker.alias = func(q *core.AliasQuery, h core.Handle) core.AliasResponse {
		switch q.L1.Size {
		case 6:
			return core.AliasFact(core.NoAlias, "asker")
		case 9:
			h.PremiseAlias(mkq(9)) // self-cycle, broken conservatively
			return core.MayAliasResponse()
		default:
			if h.PremiseAlias(mkq(q.L1.Size+1)).Result == core.NoAlias {
				return core.AliasFact(core.NoAlias, "asker")
			}
			return core.MayAliasResponse()
		}
	}
	follower := &stubModule{name: "follower"}
	c := NewCollector()
	o := core.NewOrchestrator(core.Config{
		Modules:  []core.Module{asker, follower},
		MaxDepth: 3,
		Tracer:   c,
	})
	o.BeginBatch()
	// Queries: a depth-truncated premise chain, the same again (served by
	// the memo table at the untainted root), and the self-cycle.
	return o, c, []*core.AliasQuery{mkq(1), mkq(1), mkq(9)}
}

func TestCollectorReconcilesWithStats(t *testing.T) {
	o, c, queries := fixture()
	for _, q := range queries {
		o.Alias(q)
	}
	m := Aggregate(c.Events())
	if err := m.Reconcile(o.Stats()); err != nil {
		t.Fatalf("trace does not reconcile: %v", err)
	}
	st := o.Stats()
	if st.PremiseQueries == 0 || st.CycleBreaks == 0 {
		t.Fatalf("fixture exercised nothing: %+v", st)
	}
	if m.TopQueries != 3 {
		t.Errorf("top queries = %d, want 3", m.TopQueries)
	}
	if m.PerModule["asker"] == nil || m.PerModule["asker"].Consults == 0 {
		t.Error("per-module consult aggregation missing asker")
	}
	if m.PerModule["asker"].PremisesAsked == 0 {
		t.Error("premise-edge attribution missing")
	}
	if !strings.Contains(m.Format(), "asker") {
		t.Error("Format omits consulted module")
	}
}

// TestTopEndDurMatchesLatencySample pins the single-measurement rule: the
// Dur a TraceTopEnd event carries and the latency sample recorded for the
// same top-level query come from one time.Since reading, so the trace and
// Stats.Latencies agree exactly, query by query. (They used to be two
// separate readings that always disagreed.)
func TestTopEndDurMatchesLatencySample(t *testing.T) {
	p1, p2 := ir.CI(1), ir.CI(2)
	mkq := func(size int64) *core.AliasQuery {
		return &core.AliasQuery{
			L1: core.MemLoc{Ptr: p1, Size: size},
			L2: core.MemLoc{Ptr: p2, Size: size},
		}
	}
	asker := &stubModule{name: "asker"}
	asker.alias = func(q *core.AliasQuery, h core.Handle) core.AliasResponse {
		if q.L1.Size < 4 {
			h.PremiseAlias(mkq(q.L1.Size + 1))
		}
		return core.MayAliasResponse()
	}
	c := NewCollector()
	o := core.NewOrchestrator(core.Config{
		Modules:       []core.Module{asker},
		RecordLatency: true,
		Tracer:        c,
	})
	for i := 0; i < 8; i++ {
		o.Alias(mkq(1))
		o.ModRef(&core.ModRefQuery{Loc: core.MemLoc{Ptr: p1, Size: int64(i)}})
	}
	st := o.Stats()
	var ends []Event
	for _, e := range c.Events() {
		if e.Kind == core.TraceTopEnd.String() {
			ends = append(ends, e)
		}
	}
	if len(ends) != len(st.Latencies) || len(ends) == 0 {
		t.Fatalf("top-end events %d vs latency samples %d", len(ends), len(st.Latencies))
	}
	for i, e := range ends {
		if e.DurNS != int64(st.Latencies[i]) {
			t.Fatalf("query %d: traced dur %dns != recorded latency %dns (two readings of the same query)",
				i, e.DurNS, int64(st.Latencies[i]))
		}
	}
}

// TestTracedRunAnswersMatchUntraced: attaching a tracer must not change
// any answer — it only observes.
func TestTracedRunAnswersMatchUntraced(t *testing.T) {
	o1, _, queries := fixture()
	o2, _, _ := fixture()
	o2.SetTracer(nil)
	for _, q := range queries {
		r1, r2 := o1.Alias(q), o2.Alias(q)
		if r1.Result != r2.Result {
			t.Fatalf("traced %s != untraced %s", r1.Result, r2.Result)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	o, c, queries := fixture()
	for _, q := range queries {
		o.Alias(q)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, c.Events()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != c.Len() {
		t.Fatalf("round trip lost events: %d != %d", len(got), c.Len())
	}
	for i, e := range got {
		if !equalEvents(e, c.Events()[i]) {
			t.Fatalf("event %d differs after round trip:\n got %+v\nwant %+v", i, e, c.Events()[i])
		}
	}
	// Round-tripped metrics still reconcile.
	if err := Aggregate(got).Reconcile(o.Stats()); err != nil {
		t.Fatalf("round-tripped trace does not reconcile: %v", err)
	}
}

func equalEvents(a, b Event) bool {
	if a.Seq != b.Seq || a.Query != b.Query || a.Kind != b.Kind || a.Alias != b.Alias ||
		a.Prop != b.Prop || a.Depth != b.Depth || a.From != b.From || a.Module != b.Module ||
		a.Result != b.Result || a.Cost != b.Cost || a.DurNS != b.DurNS ||
		a.TimedOut != b.TimedOut || len(a.Contribs) != len(b.Contribs) {
		return false
	}
	for i := range a.Contribs {
		if a.Contribs[i] != b.Contribs[i] {
			return false
		}
	}
	return true
}

func TestMergeRenumbers(t *testing.T) {
	o1, c1, queries := fixture()
	o2, c2, _ := fixture()
	for _, q := range queries {
		o1.Alias(q)
		o2.Alias(q)
	}
	merged := Merge(c1, nil, c2)
	if len(merged) != c1.Len()+c2.Len() {
		t.Fatalf("merged %d events, want %d", len(merged), c1.Len()+c2.Len())
	}
	for i, e := range merged {
		if e.Seq != int64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	// Query ordinals continue across the boundary instead of restarting.
	m := Aggregate(merged)
	if m.TopQueries != 6 {
		t.Fatalf("merged top queries = %d, want 6", m.TopQueries)
	}
	last := merged[len(merged)-1]
	if last.Query != 5 {
		t.Errorf("last query ordinal = %d, want 5", last.Query)
	}
	// Merged metrics reconcile with merged stats.
	st := &core.Stats{}
	st.Merge(o1.Stats())
	st.Merge(o2.Stats())
	if err := m.Reconcile(st); err != nil {
		t.Fatalf("merged trace does not reconcile: %v", err)
	}
}

func TestBuildTreesStructure(t *testing.T) {
	o, c, queries := fixture()
	for _, q := range queries {
		o.Alias(q)
	}
	trees := BuildTrees(c.Events())
	if len(trees) != 3 {
		t.Fatalf("trees = %d, want 3", len(trees))
	}
	// Query 0: the premise chain 1→2→3→4 under MaxDepth 3 — at least one
	// nested premise child, and some frame sees the depth limit.
	root := trees[0].Root
	if len(root.Children) == 0 {
		t.Fatal("query 0 has no premise children")
	}
	if root.Children[0].From != "asker" {
		t.Errorf("premise asked by %q, want asker", root.Children[0].From)
	}
	depthLimits := 0
	var walk func(n *Node)
	var nodes int
	walk = func(n *Node) {
		nodes++
		depthLimits += n.DepthLimits
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(root)
	if depthLimits == 0 {
		t.Error("depth limit not attached to any frame")
	}
	// Query 1 repeats query 0: served from the memo table. The hit can be
	// at the root (if untainted) — but the depth-limited chain is tainted,
	// so the root re-resolves and inner frames hit cached clean entries.
	// Either way at least one frame in the tree is a cache hit.
	hits := 0
	var rec func(n *Node)
	rec = func(n *Node) {
		if n.CacheHit {
			hits++
		}
		for _, ch := range n.Children {
			rec(ch)
		}
	}
	rec(trees[1].Root)
	if hits == 0 {
		t.Error("repeat query shows no cache hit in its tree")
	}
	// Query 2: the self-cycle — a cycle break attached below the root.
	breaks := 0
	var rb func(n *Node)
	rb = func(n *Node) {
		breaks += n.CycleBreaks
		for _, ch := range n.Children {
			rb(ch)
		}
	}
	rb(trees[2].Root)
	if breaks == 0 {
		t.Error("cycle break not attached to query 2's tree")
	}
}

func TestWriteDOT(t *testing.T) {
	o, c, queries := fixture()
	for _, q := range queries {
		o.Alias(q)
	}
	var buf bytes.Buffer
	if err := WriteDOT(&buf, BuildTrees(c.Events())); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph scaf_trace", "cluster_q0", "cluster_q2", "asker", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	if strings.Count(out, "{") != strings.Count(out, "}") {
		t.Error("unbalanced braces in DOT output")
	}
}

func TestCollectorReset(t *testing.T) {
	o, c, queries := fixture()
	o.Alias(queries[0])
	if c.Len() == 0 || c.Queries() != 1 {
		t.Fatalf("collector recorded nothing: len=%d queries=%d", c.Len(), c.Queries())
	}
	c.Reset()
	if c.Len() != 0 || c.Queries() != 0 {
		t.Error("Reset left state behind")
	}
	o.Alias(queries[2])
	if c.Queries() != 1 || c.Events()[0].Query != 0 {
		t.Error("post-Reset numbering did not restart at 0")
	}
}
