package server

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// jsonSeeds are the validator's hard cases: the nesting limit on both
// sides, with empty and non-empty innermost containers; every escape
// and broken ones; control bytes and bytes >= 0x80 inside and outside
// strings; numbers at the edges of the grammar; literals; whitespace;
// and structural near-misses.
func jsonSeeds() [][]byte {
	// Each array level is "[", each mixed level pair `{"":[`; the inner
	// value adds the last one or two levels.
	arrays := func(levels int, inner string) []byte {
		return []byte(strings.Repeat("[", levels) + inner + strings.Repeat("]", levels))
	}
	mixed := func(pairs int, inner string) []byte {
		return []byte(strings.Repeat(`{"":[`, pairs) + inner + strings.Repeat("]}", pairs))
	}
	seeds := [][]byte{
		arrays(maxJSONDepth-1, "[]"),         // depth 10,000, empty innermost
		arrays(maxJSONDepth, "[]"),           // 10,001
		arrays(maxJSONDepth-1, "[0]"),        // 10,000, non-empty innermost
		arrays(maxJSONDepth, "[0]"),          // 10,001
		mixed(maxJSONDepth/2-1, `{"":{}}`),   // 10,000, empty innermost
		mixed(maxJSONDepth/2, "{}"),          // 10,001
		mixed(maxJSONDepth/2-1, `{"k":[0]}`), // 10,000, non-empty innermost
		mixed(maxJSONDepth/2, `{"k":"v"}`),   // 10,001
	}
	for _, s := range []string{
		`"\"\\\/\b\f\n\r\t\u0041\u00e9\uD834\uDD1E\uabcd"`,
		`"\u00g0"`, `"\u12"`, `"\u"`, `"\uABC`, `"\U0041"`, `"\x41"`, `"\'"`, `"\`, `"\ "`,
		"\"a\x01b\"", "\"\x1f\"", "\"\x7f\"", "\"tab\there\"", "\x00", "[\x01]", "{\"\n\":1}",
		"\"\xff\xfe\x80\"", "\"\xc3\xa9\"", "\xff", "[\x80]", "{\"a\":\xc3\xa9}", "\xef\xbb\xbf{}",
		"-0", "01", "1.", "1e+", "-", "-01", "00", "0.5e-3", "1E10", "1.e5", ".5", "+1", "1e",
		"1e+5", "-0.0E-0", "0x10", "Infinity", "NaN", "1_000", "123456789012345678901234567890",
		"true", "false", "null", "tru", "truex", "nul", "True", "[true,false,null]", "[nulls]",
		"", "   ", " \t\r\n{} \n", "\v{}", "{}\f", " {}", "{} ", " {}",
		"{}", "[]", `{"a":1,}`, "[1,]", "{,}", "[,1]", `{"a"}`, `{"a":}`, "{1:2}", "[1 2]",
		`{"a":1 "b":2}`, "{} {}", "{}}", "[[]", "[]]", "{]", "[}", `{"a":[1,{"b":null}],"c":"d"}`,
		`{"a" : [ 1 , { "b" : -2.5e+3 } ] , "c" : "" }`, `{"":{"":{}}}`, "[[[[[]]]]]",
	} {
		seeds = append(seeds, []byte(s))
	}
	for _, wr := range envelopeResults {
		seeds = append(seeds, encodeLoopResult(wr))
	}
	return seeds
}

// checkValidator fails t unless validJSON and isJSONObject agree with
// json.Valid on b.
func checkValidator(t *testing.T, b []byte) {
	t.Helper()
	want := json.Valid(b)
	if got := validJSON(b); got != want {
		t.Fatalf("validJSON(%.200q) = %v, json.Valid = %v", b, got, want)
	}
	wantObject := len(b) >= 2 && b[0] == '{' && b[len(b)-1] == '}' && want
	if got := isJSONObject(b); got != wantObject {
		t.Fatalf("isJSONObject(%.200q) = %v, want %v", b, got, wantObject)
	}
}

// FuzzValidJSON holds the byte path's validator to encoding/json.Valid,
// its reference, on arbitrary input.
func FuzzValidJSON(f *testing.F) {
	for _, s := range jsonSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkValidator)
}

// TestValidJSONMatchesEncodingJSON runs the validator against json.Valid
// on every seed and, for the short ones, on every prefix, every one-byte
// deletion and every one-byte replacement from the bytes that steer the
// grammar.
func TestValidJSONMatchesEncodingJSON(t *testing.T) {
	const steer = "{}[]\":,\\ \t\n0129-+.eEtfnulbrxaA/\x00\x1f\x7f\x80\xff"
	seeds := jsonSeeds()
	// The first eight seeds straddle the nesting limit: depth 10,000 is
	// valid and 10,001 is not, whatever the innermost container holds.
	for i, s := range seeds[:8] {
		if json.Valid(s) != (i%2 == 0) {
			t.Fatalf("nesting seed %d: json.Valid = %v", i, json.Valid(s))
		}
	}
	for _, s := range seeds {
		checkValidator(t, s)
		if len(s) > 512 {
			continue
		}
		for i := range s {
			checkValidator(t, s[:i])
			checkValidator(t, append(append([]byte(nil), s[:i]...), s[i+1:]...))
			m := append([]byte(nil), s...)
			for j := 0; j < len(steer); j++ {
				m[i] = steer[j]
				checkValidator(t, m)
			}
		}
	}
}

// TestValidJSONAllocatesNothing: the check on every stored value and
// sub-reply costs no allocation, even at the nesting limit.
func TestValidJSONAllocatesNothing(t *testing.T) {
	seeds := jsonSeeds()
	if n := testing.AllocsPerRun(10, func() {
		for _, s := range seeds {
			validJSON(s)
		}
	}); n != 0 {
		t.Fatalf("validJSON allocated %.1f times per pass over the seeds", n)
	}
}

// TestGenValidJSONCorpus regenerates the committed seed corpus of
// FuzzValidJSON under testdata/fuzz. Guarded: only runs when
// SCAF_GEN_CORPUS=1, as the other corpus generators are.
func TestGenValidJSONCorpus(t *testing.T) {
	if os.Getenv("SCAF_GEN_CORPUS") != "1" {
		t.Skip("set SCAF_GEN_CORPUS=1 to regenerate the corpus")
	}
	dir := "testdata/fuzz/FuzzValidJSON"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range jsonSeeds() {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		if err := os.WriteFile(fmt.Sprintf("%s/seed-%03d", dir, i), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
