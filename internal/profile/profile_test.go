package profile

import (
	"testing"

	"scaf/internal/cfg"
	"scaf/internal/interp"
	"scaf/internal/ir"
	"scaf/internal/lower"
)

func collect(t *testing.T, src string) *Data {
	t.Helper()
	m, err := lower.Compile("test", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	prog := cfg.NewProgram(m)
	d, err := Collect(prog, interp.Options{})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	return d
}

// collectMemDep is collect plus the memory-dependence profile, taken
// from its own run as scaf.System.MemSpec takes it.
func collectMemDep(t *testing.T, src string) (*Data, *MemDepProfile) {
	t.Helper()
	d := collect(t, src)
	dep, err := CollectMemDep(d.Prog, interp.Options{})
	if err != nil {
		t.Fatalf("memdep: %v", err)
	}
	return d, dep
}

// findLoop returns the single loop of the named function whose header
// name contains hdr, or the function's only loop when hdr is "".
func findLoop(t *testing.T, d *Data, fn string, hdr string) *cfg.Loop {
	t.Helper()
	f := d.Prog.Mod.FuncNamed(fn)
	if f == nil {
		t.Fatalf("no function %s", fn)
	}
	forest := d.Prog.Forests[f]
	if hdr == "" {
		if len(forest.All) != 1 {
			t.Fatalf("%s has %d loops, want 1", fn, len(forest.All))
		}
		return forest.All[0]
	}
	for _, l := range forest.All {
		if l.Header.Name == hdr {
			return l
		}
	}
	t.Fatalf("no loop with header %s in %s", hdr, fn)
	return nil
}

const biasedProg = `
int data[64];
int errors;

void main() {
    for (int i = 0; i < 1000; i++) {
        int v = i % 64;
        if (v > 9999) {        // never taken during profiling
            errors = errors + 1;
        } else {
            data[v] = v;
        }
    }
    print(errors);
}
`

func TestEdgeProfileBias(t *testing.T) {
	d := collect(t, biasedProg)
	main := d.Prog.Mod.FuncNamed("main")
	biased := d.Edge.BiasedEdges(main)
	if len(biased) != 1 {
		t.Fatalf("biased edges = %d, want 1", len(biased))
	}
	// The rare block (storing to errors) must be spec-dead.
	rare := biased[0].To
	if !d.Edge.SpecDead(rare) {
		t.Errorf("rare block %s not spec-dead", rare)
	}
	if d.Edge.SpecDead(main.Entry()) {
		t.Error("entry must not be spec-dead")
	}
	// Loop stats: one loop, 1000 iterations, 1 invocation.
	l := findLoop(t, d, "main", "")
	st := d.LoopStats[l]
	if st.Invocations != 1 {
		t.Errorf("invocations = %d", st.Invocations)
	}
	if got := st.AvgIters(); got < 999 || got > 1001 {
		t.Errorf("avg iters = %f", got)
	}
	if len(d.HotLoops(DefaultHotLoopParams())) != 1 {
		t.Errorf("hot loops = %d, want 1", len(d.HotLoops(DefaultHotLoopParams())))
	}
}

const valueProg = `
int config;
int sink;

void main() {
    config = 42;
    int s = 0;
    for (int i = 0; i < 200; i++) {
        s += config;      // invariant load -> predictable
        sink = i;         // varying store
        s += sink;        // varying load -> not predictable
    }
    print(s);
}
`

func TestValueProfile(t *testing.T) {
	d := collect(t, valueProg)
	main := d.Prog.Mod.FuncNamed("main")
	cfgG := d.Prog.Mod.GlobalNamed("config")
	sinkG := d.Prog.Mod.GlobalNamed("sink")
	var cfgLoad, sinkLoad *ir.Instr
	main.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpLoad {
			if in.Args[0] == ir.Value(cfgG) {
				cfgLoad = in
			}
			if in.Args[0] == ir.Value(sinkG) {
				sinkLoad = in
			}
		}
	})
	if cfgLoad == nil || sinkLoad == nil {
		t.Fatalf("loads not found:\n%s", ir.FormatFunc(main))
	}
	if v, ok := d.Value.Predictable(cfgLoad); !ok || v != 42 {
		t.Errorf("config load: predictable=%v v=%d, want 42", ok, v)
	}
	if _, ok := d.Value.Predictable(sinkLoad); ok {
		t.Error("sink load should not be predictable")
	}
	if d.Value.ExecCount(cfgLoad) != 200 {
		t.Errorf("config load count = %d", d.Value.ExecCount(cfgLoad))
	}
}

const heapProg = `
struct item { int weight; int id; };
int table[32];
int out;

void work(int n) {
    for (int i = 0; i < n; i++) {
        struct item* it = malloc(struct item, 1);   // short-lived
        it->weight = table[i % 32];                 // table read-only here
        it->id = i;
        out = out + it->weight + it->id;
        free(it);
    }
}

void main() {
    for (int i = 0; i < 32; i++) { table[i] = i * 3; }
    work(500);
    print(out);
}
`

func TestPointsToAndLifetime(t *testing.T) {
	d := collect(t, heapProg)
	work := d.Prog.Mod.FuncNamed("work")
	l := findLoop(t, d, "work", "")

	// Find the malloc site and the table global site.
	var mallocSite Site
	work.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpMalloc {
			mallocSite = Site{In: in}
		}
	})
	tableSite := Site{G: d.Prog.Mod.GlobalNamed("table")}
	outSite := Site{G: d.Prog.Mod.GlobalNamed("out")}

	if !d.Lifetime.ShortLived(l, mallocSite) {
		t.Error("malloc site should be short-lived for the work loop")
	}
	if !d.Lifetime.ReadOnly(l, tableSite) {
		t.Error("table should be read-only in the work loop")
	}
	if d.Lifetime.ReadOnly(l, outSite) {
		t.Error("out is written in the loop; not read-only")
	}
	if d.Lifetime.ShortLived(l, tableSite) {
		t.Error("table is not allocated under the loop; not short-lived")
	}

	// Points-to: the field store pointers must point only into the malloc
	// site.
	work.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore {
			ptr := in.Args[1]
			if fi, ok := ptr.(*ir.Instr); ok && fi.Op == ir.OpField {
				if s, ok := d.PointsTo.OnlySite(ptr); !ok || s != mallocSite {
					t.Errorf("field store pointer should point only to malloc site, got %v ok=%v", s, ok)
				}
			}
		}
	})
}

const survivorProg = `
struct n { int v; struct n* next; };
struct n* keep;
void main() {
    keep = 0;
    for (int i = 0; i < 100; i++) {
        struct n* x = malloc(struct n, 1);  // survives the iteration
        x->v = i;
        x->next = keep;
        keep = x;
    }
    print(keep->v);
}
`

func TestShortLivedViolation(t *testing.T) {
	d := collect(t, survivorProg)
	l := findLoop(t, d, "main", "")
	var site Site
	d.Prog.Mod.FuncNamed("main").Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpMalloc {
			site = Site{In: in}
		}
	})
	if d.Lifetime.ShortLived(l, site) {
		t.Error("surviving allocations must not be short-lived")
	}
}

const depProg = `
int buf[128];
int acc;

void main() {
    for (int i = 0; i < 300; i++) {
        buf[i % 128] = i;        // store
        acc = acc + buf[i % 128]; // load of same slot, same iteration
    }
    print(acc);
}
`

func TestMemDepProfile(t *testing.T) {
	d, dep := collectMemDep(t, depProg)
	l := findLoop(t, d, "main", "")
	main := d.Prog.Mod.FuncNamed("main")
	bufG := d.Prog.Mod.GlobalNamed("buf")

	var bufStore, bufLoad *ir.Instr
	main.Instrs(func(in *ir.Instr) {
		ptr, _, ok := in.PointerOperand()
		if !ok {
			return
		}
		idx, isIdx := ptr.(*ir.Instr)
		if !isIdx || idx.Op != ir.OpIndex {
			return
		}
		base, isCast := idx.Args[0].(*ir.Instr)
		if !isCast || base.Args[0] != ir.Value(bufG) {
			return
		}
		if in.Op == ir.OpStore {
			bufStore = in
		} else if in.Op == ir.OpLoad {
			bufLoad = in
		}
	})
	if bufStore == nil || bufLoad == nil {
		t.Fatalf("buf accesses not found:\n%s", ir.FormatFunc(main))
	}
	// Intra-iteration flow dep store->load must be observed.
	if !dep.Observed(l, bufStore, bufLoad, false) {
		t.Error("intra-iteration flow dep not observed")
	}
	// Cross-iteration output dep store->store (same slot 128 iterations
	// later) must be observed.
	if !dep.Observed(l, bufStore, bufStore, true) {
		t.Error("cross-iteration output dep not observed")
	}
	// Cross-iteration anti dep load->store.
	if !dep.Observed(l, bufLoad, bufStore, true) {
		t.Error("cross-iteration anti dep not observed")
	}
	// No intra-iteration dep load->store on the same slot (load happens
	// after the store within an iteration... anti load->store intra would
	// require a second store after the load).
	if dep.Observed(l, bufLoad, bufStore, false) {
		t.Error("unexpected intra-iteration anti dep")
	}
}

const calleeDepProg = `
int state;

void bump() { state = state + 1; }

void main() {
    for (int i = 0; i < 200; i++) {
        bump();
    }
    print(state);
}
`

func TestCalleeDepsAttributedToCallSite(t *testing.T) {
	d, dep := collectMemDep(t, calleeDepProg)
	l := findLoop(t, d, "main", "")
	main := d.Prog.Mod.FuncNamed("main")
	var call *ir.Instr
	main.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpCall && in.Callee != nil {
			call = in
		}
	})
	if call == nil {
		t.Fatal("call not found")
	}
	// The cross-iteration dependence through `state` must surface as
	// call->call at the loop level.
	if !dep.Observed(l, call, call, true) {
		t.Error("cross-iteration dep between call sites not observed")
	}
}

func TestResidueProfileFields(t *testing.T) {
	d := collect(t, `
struct pair { int a; int b; };
int outA;
int outB;
void main() {
    struct pair* p = malloc(struct pair, 64);
    for (int i = 0; i < 64; i++) {
        p[i].a = i;
        p[i].b = i * 2;
    }
    print(p[3].a + p[5].b);
}`)
	main := d.Prog.Mod.FuncNamed("main")
	var storeA, storeB *ir.Instr
	main.Instrs(func(in *ir.Instr) {
		if in.Op != ir.OpStore {
			return
		}
		if f, ok := in.Args[1].(*ir.Instr); ok && f.Op == ir.OpField {
			if f.FieldIdx == 0 {
				storeA = in
			} else {
				storeB = in
			}
		}
	})
	if storeA == nil || storeB == nil {
		t.Fatalf("field stores not found:\n%s", ir.FormatFunc(main))
	}
	pa, _, _ := storeA.PointerOperand()
	pb, _, _ := storeB.PointerOperand()
	ma, oka := d.Residue.Mask(pa)
	mb, okb := d.Residue.Mask(pb)
	if !oka || !okb {
		t.Fatal("residues not observed")
	}
	// struct pair is 16 bytes and allocations are 16-aligned: field a is
	// always at residue 0, field b at residue 8.
	if ma != 1<<0 {
		t.Errorf("mask(a) = %#x, want 0x1", ma)
	}
	if mb != 1<<8 {
		t.Errorf("mask(b) = %#x, want 0x100", mb)
	}
	if !d.Residue.DisjointAccesses(pa, 8, pb, 8) {
		t.Error("field accesses should be residue-disjoint")
	}
	if d.Residue.DisjointAccesses(pa, 16, pb, 8) {
		t.Error("16-byte access overlaps everything")
	}
}

func TestNestedLoopTracking(t *testing.T) {
	d := collect(t, `
int grid[16][16];
int total;
void main() {
    for (int i = 0; i < 100; i++) {
        for (int j = 0; j < 16; j++) {
            grid[i % 16][j] = i + j;
        }
        total = total + grid[i % 16][0];
    }
    print(total);
}`)
	outer := findLoop(t, d, "main", "for_head")
	if outer.Depth != 1 {
		// header naming depends on block creation order; find by depth.
		for _, l := range d.Prog.Forests[d.Prog.Mod.FuncNamed("main")].All {
			if l.Depth == 1 {
				outer = l
			}
		}
	}
	st := d.LoopStats[outer]
	if st.Invocations != 1 {
		t.Errorf("outer invocations = %d", st.Invocations)
	}
	var inner *cfg.Loop
	for _, l := range d.Prog.Forests[d.Prog.Mod.FuncNamed("main")].All {
		if l.Depth == 2 {
			inner = l
		}
	}
	if inner == nil {
		t.Fatal("no inner loop")
	}
	ist := d.LoopStats[inner]
	if ist.Invocations != 100 {
		t.Errorf("inner invocations = %d, want 100", ist.Invocations)
	}
	if got := ist.AvgIters(); got < 15.5 || got > 16.5 {
		t.Errorf("inner avg iters = %f, want ~16", got)
	}
}

func TestCallChainAndContextSensitivity(t *testing.T) {
	d := collect(t, `
int* bufA;
int* bufB;
int out;
void touch(int* p) {
    for (int i = 0; i < 60; i++) { p[i % 8] = i; }
}
void main() {
    bufA = malloc(int, 8);
    bufB = malloc(int, 8);
    touch(bufA);
    touch(bufB);
    int* a = bufA;
    out = a[0];
    print(out);
}`)
	// Locate the store pointer inside touch and the two call sites.
	var ptr ir.Value
	d.Prog.Mod.FuncNamed("touch").Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore {
			ptr, _, _ = in.PointerOperand()
		}
	})
	var calls []*ir.Instr
	var sites []Site
	d.Prog.Mod.FuncNamed("main").Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpCall && in.Callee != nil {
			calls = append(calls, in)
		}
		if in.Op == ir.OpMalloc {
			sites = append(sites, Site{In: in})
		}
	})
	if ptr == nil || len(calls) != 2 || len(sites) != 2 {
		t.Fatalf("setup failed: ptr=%v calls=%d sites=%d", ptr, len(calls), len(sites))
	}
	// Context-insensitive: both sites.
	all := d.PointsTo.SitesOf(ptr)
	if len(all) != 2 {
		t.Fatalf("insensitive sites = %v", all)
	}
	// Per-call-site: exactly one each, and the right one.
	s1 := d.PointsTo.SitesOfCtx(ptr, []*ir.Instr{calls[0]})
	s2 := d.PointsTo.SitesOfCtx(ptr, []*ir.Instr{calls[1]})
	if len(s1) != 1 || !s1[sites[0]] {
		t.Errorf("ctx call1 sites = %v, want {%v}", s1, sites[0])
	}
	if len(s2) != 1 || !s2[sites[1]] {
		t.Errorf("ctx call2 sites = %v, want {%v}", s2, sites[1])
	}
	// Empty context falls back to the insensitive set.
	if got := d.PointsTo.SitesOfCtx(ptr, nil); len(got) != 2 {
		t.Errorf("nil ctx = %v", got)
	}
}

func TestCtxSuffixHashProperties(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", ir.Void)
	callee := m.NewFunc("g", ir.Void)
	ce := callee.NewBlock("entry")
	ce.Ret()
	b := f.NewBlock("entry")
	c1 := b.Call(callee)
	c2 := b.Call(callee)
	b.Ret()

	h1 := CtxSuffixHash([]*ir.Instr{c1})
	h2 := CtxSuffixHash([]*ir.Instr{c2})
	if h1 == h2 {
		t.Error("different call sites must hash differently")
	}
	if CtxSuffixHash([]*ir.Instr{c1}) != h1 {
		t.Error("hash must be deterministic")
	}
	if CtxSuffixHash([]*ir.Instr{c1, c2}) == CtxSuffixHash([]*ir.Instr{c2, c1}) {
		t.Error("hash must be order-sensitive")
	}
}
