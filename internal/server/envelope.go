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
// A reply goes out framed by its length and in pieces
// (writeAnalyzeResponse): the envelope's head, each result's bytes, the
// tail, so no hop copies the results into a new body either.

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

// appendAnalyzeTail appends what follows the results list in the
// AnalyzeResponse envelope: the non-zero counters, then the closing
// brace and writeJSON's newline.
func appendAnalyzeTail(dst []byte, deadlineMisses, coalesceHits int64) []byte {
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

// appendAnalyzeResponse appends the encoding writeJSON gives
// AnalyzeResponse{session, scheme, results, deadlineMisses, coalesceHits}
// when each element of results is its loop result's encodeLoopResult
// bytes. A nil results encodes as null, as a nil slice does.
func appendAnalyzeResponse(dst []byte, session, scheme string, results [][]byte, deadlineMisses, coalesceHits int64) []byte {
	open, shut := resultsBrackets(results)
	dst = append(appendAnalyzeHead(dst, session, scheme), open...)
	for i, r := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, r...)
	}
	return appendAnalyzeTail(append(dst, shut...), deadlineMisses, coalesceHits)
}

// resultsBrackets returns what opens and closes the encoding of results:
// a list's brackets, or null and nothing for a nil slice.
func resultsBrackets(results [][]byte) (open, shut string) {
	if results == nil {
		return "null", ""
	}
	return "[", "]"
}

var comma = []byte{','}

// writeAnalyzeResponse writes the 200 /analyze reply that
// appendAnalyzeResponse builds, with writeJSON's Content-Type and a
// Content-Length, without assembling it: the envelope's head and tail
// come from one small buffer, and each result is written from the bytes
// the caller holds, which for a warm hit are the tier's stored bytes.
func writeAnalyzeResponse(w http.ResponseWriter, session, scheme string, results [][]byte, deadlineMisses, coalesceHits int64) {
	open, shut := resultsBrackets(results)
	head := append(appendAnalyzeHead(make([]byte, 0, 128+len(session)+len(scheme)), session, scheme), open...)
	// The tail goes into head's spare capacity, after its last byte.
	tail := appendAnalyzeTail(append(head[len(head):], shut...), deadlineMisses, coalesceHits)
	n := len(head) + len(tail)
	for i, r := range results {
		if i > 0 {
			n++
		}
		n += len(r)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	// A client gone mid-write fails every later write: nothing useful to do.
	w.Write(head)
	for i, r := range results {
		if i > 0 {
			w.Write(comma)
		}
		w.Write(r)
	}
	w.Write(tail)
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
// appendAnalyzeResponse writes for one result there, and checks that the
// result is exactly one JSON object in a single isJSONObject pass, which
// accepts what json.Valid accepts. Anything else — truncated, two
// results, an invalid result, another session, scheme or envelope — is
// ok=false.
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
