package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"scaf"
	"scaf/internal/bench"
)

// TestServerMatchesLibrary is the serving layer's core guarantee: for
// every benchmark and scheme, the bytes the HTTP path returns are
// identical to encoding the library path's results. The server side runs
// with warm pools, shared caches and latency recording; none of that may
// perturb a single answer (the end-to-end restatement of
// pdg.TestParallelMatchesSerial for the daemon).
func TestServerMatchesLibrary(t *testing.T) {
	names := []string{"129.compress", "181.mcf", "462.libquantum"}
	if testing.Short() {
		names = names[:1]
	}
	schemes := []scaf.Scheme{scaf.SchemeCAF, scaf.SchemeConfluence, scaf.SchemeSCAF}

	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			b, err := bench.Load(name)
			if err != nil {
				t.Fatalf("library load: %v", err)
			}

			_, ts := newTestServer(t, Config{})
			info := createSession(t, ts.URL, CreateSessionRequest{Bench: name, Plan: "off"})
			if len(info.HotLoops) != len(b.Hot) {
				t.Fatalf("server sees %d hot loops, library %d", len(info.HotLoops), len(b.Hot))
			}

			for _, scheme := range schemes {
				// Library reference: plain serial orchestrator, no caches.
				o := b.Sys.Orchestrator(scheme)
				client := b.Sys.Client()
				var want []WireLoopResult
				for _, l := range b.Hot {
					want = append(want, EncodeLoopResult(client.AnalyzeLoop(o, l)))
				}
				wantJSON, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}

				// Twice through the server: the second pass answers from the
				// session's warm cache and must not drift either.
				for pass := 0; pass < 2; pass++ {
					status, raw := do(t, ts.URL, "POST", "/sessions/"+info.ID+"/analyze",
						AnalyzeRequest{Scheme: scheme.String()})
					if status != http.StatusOK {
						t.Fatalf("%s analyze pass %d: status %d, body %s", scheme, pass, status, raw)
					}
					ar := decode[AnalyzeResponse](t, raw)
					gotJSON, err := json.Marshal(ar.Results)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gotJSON, wantJSON) {
						t.Fatalf("%s/%s pass %d: HTTP answer differs from library answer\ngot  %.400s\nwant %.400s",
							name, scheme, pass, gotJSON, wantJSON)
					}
				}
			}
		})
	}
}
