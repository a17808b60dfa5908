package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"scaf/internal/core"
)

// stallModule slows every query it is consulted on, so the loops of one
// analyze are still resolving when its last sub-requests arrive.
type stallModule struct{ core.BaseModule }

func (stallModule) Name() string          { return "test-stall" }
func (stallModule) Kind() core.ModuleKind { return core.Speculation }

func (stallModule) Alias(q *core.AliasQuery, h core.Handle) core.AliasResponse {
	time.Sleep(time.Millisecond)
	return core.MayAliasResponse()
}

func (stallModule) ModRef(q *core.ModRefQuery, h core.Handle) core.ModRefResponse {
	time.Sleep(time.Millisecond)
	return core.ModRefConservative()
}

// TestRouterAnalyzeFanOutFitsAdmission: an analyze whose 25 loops all
// live on one backend is answered 200. Its sub-requests, sent at once,
// would exceed the backend's default admission (4 workers, 16 queued),
// and the 429 it sheds would reach a client that sent one request.
func TestRouterAnalyzeFanOutFitsAdmission(t *testing.T) {
	fl, err := StartLoopbackFleet(1, false, "", Config{
		ExtraModules: func() []core.Module { return []core.Module{stallModule{}} },
	}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	// 25 loops of indirect updates, which memory analysis cannot
	// disprove, so every loop consults the stalling module.
	var src strings.Builder
	src.WriteString("int a[64];\nint idx[64];\nvoid main() {\n")
	src.WriteString("    for (int i = 0; i < 64; i++) { idx[i] = (i * 7) % 64; }\n")
	for k := 0; k < 24; k++ {
		fmt.Fprintf(&src, "    for (int i = 0; i < 64; i++) { a[idx[i]] = a[idx[i]] + %d; }\n", k+1)
	}
	src.WriteString("    print(a[3]);\n}\n")
	info := createSession(t, fl.URL, CreateSessionRequest{
		Name: "wide", Source: src.String(), Plan: "off",
		HotLoops: &WireHotLoopParams{MinWeightFrac: 0.001, MinAvgIters: 1.5},
	})
	if len(info.HotLoops) < 24 {
		t.Fatalf("%d hot loops, want at least 24", len(info.HotLoops))
	}
	st, raw := do(t, fl.URL, "POST", "/sessions/"+info.ID+"/analyze", AnalyzeRequest{Scheme: "scaf"})
	if st != http.StatusOK {
		t.Fatalf("analyze of %d loops on one backend: %d %.300s", len(info.HotLoops), st, raw)
	}
	if got := len(decode[AnalyzeResponse](t, raw).Results); got != len(info.HotLoops) {
		t.Fatalf("%d results for %d loops", got, len(info.HotLoops))
	}
}
