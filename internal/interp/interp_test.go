package interp

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"scaf/internal/cfg"
	"scaf/internal/ir"
	"scaf/internal/lower"
)

func run(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	m, err := lower.Compile("test", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := Run(m, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func wantOutput(t *testing.T, res *Result, want ...string) {
	t.Helper()
	if len(res.Output) != len(want) {
		t.Fatalf("output = %v, want %v", res.Output, want)
	}
	for i := range want {
		if res.Output[i] != want[i] {
			t.Errorf("output[%d] = %q, want %q", i, res.Output[i], want[i])
		}
	}
}

func TestArithmetic(t *testing.T) {
	res := run(t, `
void main() {
    int a = 7;
    int b = 3;
    print(a + b);
    print(a - b);
    print(a * b);
    print(a / b);
    print(a % b);
    print(a & b);
    print(a | b);
    print(a ^ b);
    print(a << b);
    print(a >> 1);
    print(-a);
    print(!0);
    print(!5);
}`, Options{})
	wantOutput(t, res, "10", "4", "21", "2", "1", "3", "7", "4", "56", "3", "-7", "1", "0")
}

func TestFloatMath(t *testing.T) {
	res := run(t, `
void main() {
    float x = 2.0;
    float y = 0.5;
    print(x + y);
    print(x * y);
    print(x / y);
    print(sqrt(16.0));
    print(fabs(0.0 - 3.5));
    print((int)(x * 3.0));
    print((float)7);
}`, Options{})
	wantOutput(t, res, "2.5", "1", "4", "4", "3.5", "6", "7")
}

func TestLoopsAndComparisons(t *testing.T) {
	res := run(t, `
void main() {
    int s = 0;
    for (int i = 0; i < 10; i++) { s += i; }
    print(s);
    int j = 0;
    while (j < 5) { j++; }
    print(j);
    int k = 0;
    for (;;) {
        k++;
        if (k >= 3) { break; }
    }
    print(k);
    int c = 0;
    for (int i = 0; i < 10; i++) {
        if (i % 2 == 0) { continue; }
        c++;
    }
    print(c);
}`, Options{})
	wantOutput(t, res, "45", "5", "3", "5")
}

func TestShortCircuitEvaluation(t *testing.T) {
	res := run(t, `
int g;
int bump() { g++; return 1; }
void main() {
    g = 0;
    if (0 && bump()) {}
    print(g);
    if (1 || bump()) {}
    print(g);
    if (1 && bump()) {}
    print(g);
}`, Options{})
	wantOutput(t, res, "0", "0", "1")
}

func TestGlobalsAndArrays(t *testing.T) {
	res := run(t, `
int a[10];
float m[3][3];
void main() {
    for (int i = 0; i < 10; i++) { a[i] = i * i; }
    print(a[7]);
    m[1][2] = 6.5;
    print(m[1][2]);
    print(m[0][0]);
}`, Options{})
	wantOutput(t, res, "49", "6.5", "0")
}

func TestStructsAndHeap(t *testing.T) {
	res := run(t, `
struct node { int val; struct node* next; };
void main() {
    struct node* head = 0;
    for (int i = 1; i <= 4; i++) {
        struct node* n = malloc(struct node, 1);
        n->val = i * 10;
        n->next = head;
        head = n;
    }
    int s = 0;
    while (head != 0) {
        s += head->val;
        struct node* dead = head;
        head = head->next;
        free(dead);
    }
    print(s);
}`, Options{})
	wantOutput(t, res, "100")
}

func TestPointersAndAddressOf(t *testing.T) {
	res := run(t, `
void set(int* p, int v) { *p = v; }
void main() {
    int x = 1;
    set(&x, 42);
    print(x);
    int arr[5];
    int* p = arr;
    p[2] = 9;
    print(arr[2]);
    *(p + 3) = 11;
    print(arr[3]);
}`, Options{})
	wantOutput(t, res, "42", "9", "11")
}

func TestRecursion(t *testing.T) {
	res := run(t, `
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
void main() { print(fib(12)); }`, Options{})
	wantOutput(t, res, "144")
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"nullderef", `void main() { int* p = 0; print(*p); }`, "null"},
		{"oob", `void main() { int* p = malloc(int, 2); p[5] = 1; }`, "unmapped"},
		{"useafterfree", `void main() { int* p = malloc(int, 1); free(p); print(*p); }`, "freed"},
		{"doublefree", `void main() { int* p = malloc(int, 1); free(p); free(p); }`, "double free"},
		{"divzero", `void main() { int z = 0; print(3 / z); }`, "division by zero"},
		{"remzero", `void main() { int z = 0; print(3 % z); }`, "remainder by zero"},
		{"interior", `void main() { int* p = malloc(int, 4); free(p + 1); }`, "interior"},
		{"depth", `int f(int n) { return f(n + 1); } void main() { print(f(0)); }`, "depth"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := lower.Compile(c.name, c.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			_, err = Run(m, Options{})
			if err == nil {
				t.Fatal("expected runtime error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestStepBudget(t *testing.T) {
	m, err := lower.Compile("b", `void main() { for (;;) {} }`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	_, err = Run(m, Options{MaxSteps: 1000})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("expected budget error, got %v", err)
	}
}

// TestStepBudgetBoundary: a run of exactly its step count within budget
// succeeds and reports that count; any smaller budget fails with the
// budget's error. Phis are charged on block entry and only instructions
// check the budget, so every budget from 1 to the count is tried.
func TestStepBudgetBoundary(t *testing.T) {
	m, err := lower.Compile("b", `
int f(int x) { return x * 2 + 1; }
void main() {
    int s = 0;
    for (int i = 0; i < 12; i++) {
        if (i % 3 == 0) { s = s + f(i); } else { s = s - i; }
    }
    print(s);
}`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := res.Steps
	if at, err := Run(m, Options{MaxSteps: n}); err != nil || at.Steps != n {
		t.Fatalf("budget %d: steps %v, err %v; want %d steps", n, at, err, n)
	}
	for max := int64(1); max < n; max++ {
		_, err := Run(m, Options{MaxSteps: max})
		if want := fmt.Sprintf("interp: instruction budget exceeded (%d)", max); err == nil || err.Error() != want {
			t.Fatalf("budget %d of %d steps: err %v, want %q", max, n, err, want)
		}
	}
}

// loadOnly counts every event it receives but asks only for loads.
type loadOnly struct{ countingObserver }

func (*loadOnly) Events() Event { return LoadEvent }

// TestSelectiveObserverGetsOnlyItsEvents: an observer that names its
// events receives only those; one that does not receives every event.
func TestSelectiveObserverGetsOnlyItsEvents(t *testing.T) {
	sel, all := &loadOnly{}, &countingObserver{}
	run(t, `
int g;
int get() { return g; }
void main() {
    g = 77;
    int* p = malloc(int, 1);
    *p = get();
    free(p);
}`, Options{Observers: []Observer{sel, all}})
	if sel.loads != all.loads || sel.loads == 0 {
		t.Errorf("selective observer saw %d loads, the other %d", sel.loads, all.loads)
	}
	if got := sel.stores + sel.allocs + sel.frees + sel.edges + sel.calls + sel.rets; got != 0 {
		t.Errorf("selective observer received %d events it did not ask for", got)
	}
	if all.stores == 0 || all.allocs == 0 || all.frees == 0 || all.calls == 0 || all.rets == 0 {
		t.Errorf("plain observer missed events: %+v", all)
	}
}

// TestForksRunRegionsConcurrently: forks share the parent's decoded
// functions and decode the ones the parent never called on their own.
// When main first enters its loop, eight forks run the whole loop at
// once; the loop calls a function main has not called yet. Each must
// write what the serial run writes. Run it under -race.
func TestForksRunRegionsConcurrently(t *testing.T) {
	m, err := lower.Compile("forks", `
int a[64];
int sq(int x) { return x * x; }
void main() {
    for (int i = 0; i < 64; i++) { a[i] = sq(i); }
    print(a[63]);
}`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	main := m.FuncNamed("main")
	loops := cfg.NewProgram(m).Forests[main].All
	if len(loops) != 1 {
		t.Fatalf("main has %d loops, want 1", len(loops))
	}
	loop := loops[0]
	var writes [8]int
	var errs [8]error
	hook := func(fr *Frame, block, prev *ir.Block) (*ir.Block, *ir.Block, error) {
		if block != loop.Header || loop.Blocks[prev] {
			return nil, nil, nil
		}
		base := fr.It.Heap()
		var wg sync.WaitGroup
		for k := range writes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				view := NewView(base)
				fork := fr.It.Fork(view)
				cfr := &Frame{It: fork, Fn: fr.Fn, Regs: append([]uint64(nil), fr.Regs...), Args: fr.Args, Depth: fr.Depth}
				end, err := fork.RunRegion(cfr, block, prev, func(from, to *ir.Block) bool { return !loop.Blocks[to] })
				if err == nil && end.Returned {
					err = fmt.Errorf("region returned")
				}
				writes[k], errs[k] = len(view.Writes()), err
			}()
		}
		wg.Wait()
		return nil, nil, nil // the parent then runs the loop itself
	}
	res, err := Run(m, Options{Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	wantOutput(t, res, "3969")
	for k := range writes {
		if errs[k] != nil {
			t.Fatalf("fork %d: %v", k, errs[k])
		}
		if writes[k] != 64*8 {
			t.Fatalf("fork %d wrote %d bytes, want %d", k, writes[k], 64*8)
		}
	}
}

func TestFreeNullIsNoop(t *testing.T) {
	res := run(t, `void main() { int* p = 0; free(p); print(1); }`, Options{})
	wantOutput(t, res, "1")
}

// countingObserver checks that observer callbacks fire.
type countingObserver struct {
	BaseObserver
	loads, stores, allocs, frees, edges, calls, rets int
	lastLoadVal                                      uint64
}

func (c *countingObserver) Edge(fn *ir.Func, from, to *ir.Block) { c.edges++ }
func (c *countingObserver) Load(in *ir.Instr, addr uint64, size int64, val uint64, o *Object) {
	c.loads++
	c.lastLoadVal = val
}
func (c *countingObserver) Store(in *ir.Instr, addr uint64, size int64, val uint64, o *Object) {
	c.stores++
}
func (c *countingObserver) Alloc(o *Object)               { c.allocs++ }
func (c *countingObserver) Free(in *ir.Instr, o *Object)  { c.frees++ }
func (c *countingObserver) Call(in *ir.Instr, f *ir.Func) { c.calls++ }
func (c *countingObserver) Return(f *ir.Func)             { c.rets++ }

func TestObserverEvents(t *testing.T) {
	obs := &countingObserver{}
	res := run(t, `
int g;
int get() { return g; }
void main() {
    g = 77;
    print(get());
}`, Options{Observers: []Observer{obs}})
	wantOutput(t, res, "77")
	if obs.stores != 1 || obs.loads != 1 {
		t.Errorf("loads=%d stores=%d, want 1/1", obs.loads, obs.stores)
	}
	if obs.lastLoadVal != 77 {
		t.Errorf("last load val = %d", obs.lastLoadVal)
	}
	if obs.allocs == 0 {
		t.Error("no alloc events (global should allocate)")
	}
	if obs.calls != 1 || obs.rets != 1 {
		t.Errorf("calls=%d rets=%d", obs.calls, obs.rets)
	}
	if obs.edges == 0 {
		t.Error("no edge events")
	}
}

func TestObjectIdentity(t *testing.T) {
	obs := &allocRecorder{}
	run(t, `
void main() {
    for (int i = 0; i < 3; i++) {
        int* p = malloc(int, 1);
        *p = i;
        free(p);
    }
}`, Options{Observers: []Observer{obs}})
	// 3 distinct heap objects from the same site.
	if len(obs.heap) != 3 {
		t.Fatalf("heap objects = %d, want 3", len(obs.heap))
	}
	site := obs.heap[0].Site
	for _, o := range obs.heap {
		if o.Site != site {
			t.Error("all objects should share the allocation site")
		}
	}
	if obs.heap[0].Base == obs.heap[1].Base {
		t.Error("addresses must not be reused")
	}
}

type allocRecorder struct {
	BaseObserver
	heap []*Object
}

func (a *allocRecorder) Alloc(o *Object) {
	if o.Site != nil && o.Site.Op == ir.OpMalloc {
		a.heap = append(a.heap, o)
	}
}

func TestResidueAlignment(t *testing.T) {
	obs := &allocRecorder{}
	run(t, `
struct pt { int x; int y; };
void main() {
    struct pt* p = malloc(struct pt, 4);
    p[1].y = 5;
    print(p[1].y);
}`, Options{Observers: []Observer{obs}})
	if len(obs.heap) != 1 {
		t.Fatalf("heap objects = %d", len(obs.heap))
	}
	if obs.heap[0].Base%16 != 0 {
		t.Errorf("allocation not 16-byte aligned: %#x", obs.heap[0].Base)
	}
}

func TestPhiParallelCopySwap(t *testing.T) {
	// The classic swap-through-phis pattern: both phis must read their
	// incoming values before either is written.
	m := ir.NewModule("t")
	f := m.NewFunc("main", ir.Void)
	entry := f.NewBlock("entry")
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")

	entry.Br(head)
	a := head.Phi(ir.Int, "a")
	b := head.Phi(ir.Int, "b")
	n := head.Phi(ir.Int, "n")
	cond := head.CmpIns(ir.Lt, n, ir.CI(3))
	head.CondBr(cond, body, exit)
	n2 := body.BinIns(ir.Add, n, ir.CI(1))
	body.Br(head)
	// Incoming: a <- b, b <- a (swap every iteration).
	a.Args = []ir.Value{ir.CI(1), b}
	b.Args = []ir.Value{ir.CI(2), a}
	n.Args = []ir.Value{ir.CI(0), n2}
	exit.CallIntrinsic("print_int", ir.Void, a)
	exit.CallIntrinsic("print_int", ir.Void, b)
	exit.Ret()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 swaps: (1,2) -> (2,1) -> (1,2) -> (2,1).
	wantOutput(t, res, "2", "1")
}

func TestStackObjectsFreedAtReturn(t *testing.T) {
	obs := &countingObserver{}
	run(t, `
void touch() {
    int buf[4];
    buf[0] = 1;
    print(buf[0]);
}
void main() {
    touch();
    touch();
}`, Options{Observers: []Observer{obs}})
	// Two activations: two alloca objects created and auto-freed.
	if obs.frees < 2 {
		t.Errorf("stack frees = %d, want >= 2", obs.frees)
	}
}
