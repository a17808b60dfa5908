package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
)

// This file is the /analyze byte path. A loop result is encoded once,
// in exactly the form it is served in (encodeLoopResult), and from then
// on travels as bytes: through the flight group, into and out of the
// fleet tier, and through the router's fan-out splice. Replies are built
// by splicing those bytes into the AnalyzeResponse envelope
// (appendAnalyzeResponse), which reproduces writeJSON's encoding of
// AnalyzeResponse byte for byte, so no hop decodes a result it serves.

// encodeLoopResult renders wr exactly as writeJSON renders it inside an
// AnalyzeResponse.
func encodeLoopResult(wr WireLoopResult) []byte {
	return appendServed(nil, wr)
}

// appendServed appends writeJSON's encoding of v (HTML escaping off)
// without its trailing newline.
func appendServed(dst []byte, v any) []byte {
	buf := bytes.NewBuffer(dst)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		// Only a bug can get here: the strings and WireLoopResults
		// served hold no channels, functions or non-finite floats.
		panic(err)
	}
	b := buf.Bytes()
	return b[:len(b)-1]
}

// appendJSONString appends s as writeJSON encodes a string.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			return appendServed(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendAnalyzeHead appends the AnalyzeResponse envelope up to and
// including the "results" key.
func appendAnalyzeHead(dst []byte, session, scheme string) []byte {
	dst = append(dst, `{"session":`...)
	dst = appendJSONString(dst, session)
	dst = append(dst, `,"scheme":`...)
	dst = appendJSONString(dst, scheme)
	return append(dst, `,"results":`...)
}

// appendAnalyzeResponse appends the encoding writeJSON gives
// AnalyzeResponse{session, scheme, results, deadlineMisses, coalesceHits}
// when each element of results is its loop result's encodeLoopResult
// bytes. A nil results encodes as null, as a nil slice does.
func appendAnalyzeResponse(dst []byte, session, scheme string, results [][]byte, deadlineMisses, coalesceHits int64) []byte {
	dst = appendAnalyzeHead(dst, session, scheme)
	if results == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, r := range results {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, r...)
		}
		dst = append(dst, ']')
	}
	if deadlineMisses != 0 {
		dst = append(dst, `,"deadline_misses":`...)
		dst = strconv.AppendInt(dst, deadlineMisses, 10)
	}
	if coalesceHits != 0 {
		dst = append(dst, `,"coalesce_hits":`...)
		dst = strconv.AppendInt(dst, coalesceHits, 10)
	}
	return append(dst, "}\n"...)
}

// writeAnalyzeResponse writes a 200 /analyze reply built by
// appendAnalyzeResponse, with writeJSON's headers.
func writeAnalyzeResponse(w http.ResponseWriter, session, scheme string, results [][]byte, deadlineMisses, coalesceHits int64) {
	n := 128 + len(session) + len(scheme)
	for _, r := range results {
		n += len(r) + 1
	}
	body := appendAnalyzeResponse(make([]byte, 0, n), session, scheme, results, deadlineMisses, coalesceHits)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // client gone mid-write: nothing useful to do
}

// isJSONObject reports whether b is exactly one JSON object with nothing
// around it — the shape of every encodeLoopResult value.
func isJSONObject(b []byte) bool {
	return len(b) >= 2 && b[0] == '{' && b[len(b)-1] == '}' && json.Valid(b)
}

// loopReply is a single-loop /analyze reply taken apart without
// decoding its loop result.
type loopReply struct {
	result                       []byte // aliases the reply body
	deadlineMisses, coalesceHits int64
}

// parseLoopReply takes apart a backend's reply to a one-loop /analyze
// whose envelope must begin with head, appendAnalyzeHead's bytes for the
// expected session and scheme followed by "[": it accepts exactly what
// appendAnalyzeResponse writes for one result there, and validates the
// result bytes in a single json.Valid pass. Anything else — truncated,
// two results, an invalid result, another session, scheme or envelope —
// is ok=false.
func parseLoopReply(body, head []byte) (loopReply, bool) {
	var r loopReply
	rest, ok := bytes.CutPrefix(body, head)
	if !ok {
		return r, false
	}
	// The rest is "<result>]" plus the optional counters and "}\n";
	// take those off the end so the result is what remains.
	if rest, ok = bytes.CutSuffix(rest, []byte("}\n")); !ok {
		return r, false
	}
	if rest, r.coalesceHits, ok = cutCounter(rest, `,"coalesce_hits":`); !ok {
		return r, false
	}
	if rest, r.deadlineMisses, ok = cutCounter(rest, `,"deadline_misses":`); !ok {
		return r, false
	}
	if rest, ok = bytes.CutSuffix(rest, []byte("]")); !ok || !isJSONObject(rest) {
		return r, false
	}
	r.result = rest
	return r, true
}

// cutCounter splits an omitempty int64 field `key<n>` off the end of b.
// When b does not end in key and an integer the field is absent (n=0);
// when it does, the integer must be the canonical, non-zero encoding
// writeJSON gives n.
func cutCounter(b []byte, key string) ([]byte, int64, bool) {
	// An int64 has at most 20 characters, so only the tail can hold it.
	from := max(len(b)-len(key)-20, 0)
	i := bytes.LastIndex(b[from:], []byte(key))
	if i < 0 {
		return b, 0, true
	}
	i += from
	digits := b[i+len(key):]
	n, err := strconv.ParseInt(string(digits), 10, 64)
	if err != nil {
		return b, 0, true
	}
	var canon [20]byte
	if n == 0 || !bytes.Equal(strconv.AppendInt(canon[:0], n, 10), digits) {
		return nil, 0, false
	}
	return b[:i], n, true
}
