package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// envelopeResults are loop results whose strings need every escape the
// served form has: HTML-significant bytes (kept raw), quotes, line
// separators, control characters.
var envelopeResults = []WireLoopResult{
	{Loop: "main:for.body", NoDepPct: 50, Queries: []WireQuery{{
		I1: "main#3", I2: "main#7", Rel: "Same", Result: "NoModRef", NoDep: true, Cost: 2.5,
		Options:  []WireOption{{Cost: 2.5, Asserts: []string{"control-spec/never-taken{main:b1->b2 cost=2.5}"}}},
		Contribs: []string{"a<b>&c", "q\"uote", "ls\u2028ps\u2029", "tab\tnl\n"},
	}}},
	{Loop: "f:loop", NoDepPct: 100, Queries: []WireQuery{}},
	{Loop: "g:loop", NoDepPct: 33.333333333333336, Queries: []WireQuery{
		{I1: "g#1", I2: "g#2", Rel: "Before", Result: "ModRef"},
		{I1: "g#2", I2: "g#1", Rel: "After", Result: "Ref", NoDep: true},
	}},
}

// TestAnalyzeEnvelopeMatchesWriteJSON: the byte path's envelope writer
// produces exactly what writeJSON produces for the equivalent
// AnalyzeResponse, for every shape of results list, every combination of
// the omitempty counters, and session/scheme strings that need escaping;
// and the router's parser takes every one-result reply apart losslessly.
func TestAnalyzeEnvelopeMatchesWriteJSON(t *testing.T) {
	resultSets := map[string][]WireLoopResult{
		"nil":     nil,
		"empty":   {},
		"one":     envelopeResults[:1],
		"several": envelopeResults,
	}
	names := [][2]string{
		{"s1", "SCAF"},
		{"s<2>&", "Confluence"},
		{`s"3\`, "sch eme"},
		{"s\x01\x7f\u2028", "é"},
	}
	counters := [][2]int64{{0, 0}, {3, 0}, {0, 7}, {12, 1}}
	for set, wrs := range resultSets {
		for _, nm := range names {
			for _, c := range counters {
				t.Run(fmt.Sprintf("%s/%q/%d-%d", set, nm[0], c[0], c[1]), func(t *testing.T) {
					want := httptest.NewRecorder()
					writeJSON(want, http.StatusOK, AnalyzeResponse{
						Session: nm[0], Scheme: nm[1], Results: wrs,
						DeadlineMisses: c[0], CoalesceHits: c[1],
					})
					var results [][]byte
					if wrs != nil {
						results = [][]byte{}
						for _, wr := range wrs {
							results = append(results, encodeLoopResult(wr))
						}
					}
					got := httptest.NewRecorder()
					writeAnalyzeResponse(got, nm[0], nm[1], results, c[0], c[1])
					if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
						t.Fatalf("status/header: got %d %q, want %d %q", got.Code, got.Header().Get("Content-Type"),
							want.Code, want.Header().Get("Content-Type"))
					}
					if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
						t.Fatalf("envelope diverged from writeJSON:\ngot  %q\nwant %q", got.Body.Bytes(), want.Body.Bytes())
					}
					if cl := got.Header().Get("Content-Length"); cl != strconv.Itoa(got.Body.Len()) {
						t.Fatalf("Content-Length %q for a %d-byte body", cl, got.Body.Len())
					}
					if appended := appendAnalyzeResponse(nil, nm[0], nm[1], results, c[0], c[1]); !bytes.Equal(appended, want.Body.Bytes()) {
						t.Fatalf("appendAnalyzeResponse diverged from writeJSON:\ngot  %q\nwant %q", appended, want.Body.Bytes())
					}
					if len(results) != 1 {
						return
					}
					head := append(appendAnalyzeHead(nil, nm[0], nm[1]), '[')
					r, ok := parseLoopReply(got.Body.Bytes(), head)
					if !ok {
						t.Fatalf("parseLoopReply rejected a writer-made reply: %q", got.Body.Bytes())
					}
					if !bytes.Equal(r.result, results[0]) || r.deadlineMisses != c[0] || r.coalesceHits != c[1] {
						t.Fatalf("parseLoopReply lost a field: %+v", r)
					}
				})
			}
		}
	}
}

// TestRouterRejectsMalformedLoopReply: a sub-response the router cannot
// take apart into exactly one valid loop result for the requested
// session and scheme is refused as 502 fleet_inconsistent, never
// spliced; a well-formed one is relayed byte-identically.
func TestRouterRejectsMalformedLoopReply(t *testing.T) {
	one := encodeLoopResult(envelopeResults[0])
	valid := appendAnalyzeResponse(nil, "s1", "SCAF", [][]byte{one}, 0, 2)
	cases := []struct {
		name string
		body []byte
		ok   bool
	}{
		{"valid", valid, true},
		{"truncated", valid[:len(valid)/2], false},
		{"truncated-result", appendAnalyzeResponse(nil, "s1", "SCAF", [][]byte{one[:len(one)-1]}, 0, 0), false},
		{"two-results", appendAnalyzeResponse(nil, "s1", "SCAF", [][]byte{one, one}, 0, 0), false},
		{"no-results", appendAnalyzeResponse(nil, "s1", "SCAF", [][]byte{}, 0, 0), false},
		{"invalid-result", appendAnalyzeResponse(nil, "s1", "SCAF", [][]byte{[]byte(`{"loop":tru}`)}, 0, 0), false},
		{"non-object-result", appendAnalyzeResponse(nil, "s1", "SCAF", [][]byte{[]byte(`[1]`)}, 0, 0), false},
		{"padded-result", appendAnalyzeResponse(nil, "s1", "SCAF", [][]byte{append([]byte(" "), one...)}, 0, 0), false},
		{"wrong-session", appendAnalyzeResponse(nil, "s2", "SCAF", [][]byte{one}, 0, 2), false},
		{"wrong-scheme", appendAnalyzeResponse(nil, "s1", "Confluence", [][]byte{one}, 0, 2), false},
		{"error-envelope", []byte(`{"error":{"code":"x","message":"y"}}` + "\n"), false},
		{"zero-counter", []byte(`{"session":"s1","scheme":"SCAF","results":[` + string(one) + `],"coalesce_hits":0}` + "\n"), false},
		{"trailing-bytes", append(append([]byte(nil), valid...), ' '), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.Write(tc.body)
			}))
			defer backend.Close()
			rt := NewRouter(RouterConfig{Backends: map[string]string{"b0": backend.URL}})
			defer rt.Close()
			tsr := httptest.NewServer(rt.Handler())
			defer tsr.Close()

			status, raw := do(t, tsr.URL, "POST", "/sessions/s1/analyze",
				AnalyzeRequest{Scheme: "scaf", Loops: []string{envelopeResults[0].Loop}})
			if tc.ok {
				if status != http.StatusOK || !bytes.Equal(raw, valid) {
					t.Fatalf("well-formed reply not relayed verbatim: %d %q", status, raw)
				}
				return
			}
			if status != http.StatusBadGateway {
				t.Fatalf("status %d, want 502 (body %q)", status, raw)
			}
			if e := decode[ErrorResponse](t, raw); e.Error.Code != "fleet_inconsistent" {
				t.Fatalf("code %q, want fleet_inconsistent", e.Error.Code)
			}
		})
	}
}
