package server

import (
	"encoding/binary"
	"math/bits"
)

// This file is the byte path's JSON check: one linear pass that
// allocates nothing and accepts exactly what encoding/json.Valid
// accepts. json.Valid drives a state machine one byte at a time through
// a function pointer, which on stored loop results of a hundred
// kilobytes costs more than everything else a warm /analyze hit does.
// The tests hold this scanner to json.Valid as the reference
// (FuzzValidJSON).

// maxJSONDepth is encoding/json's nesting limit: a value may hold at
// most this many open arrays and objects at once, an empty one included.
const maxJSONDepth = 10000

// isJSONObject reports whether b is exactly one JSON object with nothing
// around it — the shape of every encodeLoopResult value.
func isJSONObject(b []byte) bool {
	return len(b) >= 2 && b[0] == '{' && b[len(b)-1] == '}' && validJSON(b)
}

// validJSON reports whether b is one JSON value with optional whitespace
// around it, exactly as json.Valid(b) does.
func validJSON(b []byte) bool {
	// objects has bit d set while the container open at depth d+1 is
	// an object, and object says whether the innermost one is.
	var objects [maxJSONDepth/64 + 1]uint64
	var depth uint // unsigned, so the bit arithmetic is shifts and masks
	object, i := false, 0
	for {
		// A value starts at i, after optional whitespace.
		if i = skipJSONSpace(b, i); i == len(b) {
			return false
		}
		if c := b[i]; c == '"' {
			if i = scanJSONString(b, i+1); i < 0 {
				return false
			}
		} else if c == '{' || c == '[' {
			if depth == maxJSONDepth {
				return false
			}
			object = c == '{'
			if object {
				objects[depth/64] |= 1 << (depth % 64)
			} else {
				objects[depth/64] &^= 1 << (depth % 64)
			}
			depth++
			if i = skipJSONSpace(b, i+1); i == len(b) || b[i] != c+2 { // '{'+2 is '}', '['+2 is ']'
				if object {
					if i = scanJSONKey(b, i); i < 0 {
						return false
					}
				}
				continue
			}
			// An empty container is a value that ends at its closer,
			// which the loop below takes.
		} else if i = scanJSONScalar(b, i); i < 0 {
			return false
		}
		// A value ended before i: close containers until one takes
		// another element, or the top-level value ends the input.
		for {
			if i = skipJSONSpace(b, i); depth == 0 {
				return i == len(b)
			}
			if i == len(b) {
				return false
			}
			if b[i] == ',' {
				if object {
					if i = scanJSONKey(b, skipJSONSpace(b, i+1)); i < 0 {
						return false
					}
				} else {
					i++
				}
				break
			}
			if object && b[i] != '}' || !object && b[i] != ']' {
				return false
			}
			depth--
			object = depth > 0 && objects[(depth-1)/64]>>((depth-1)%64)&1 != 0
			i++
		}
	}
}

// skipJSONSpace returns the index of the first byte at or after i that
// is not JSON whitespace.
func skipJSONSpace(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanJSONKey scans an object member's key string at i and the colon
// after it, returning the index after the colon, or -1.
func scanJSONKey(b []byte, i int) int {
	if i == len(b) || b[i] != '"' {
		return -1
	}
	if i = scanJSONString(b, i+1); i < 0 {
		return -1
	}
	if i = skipJSONSpace(b, i); i == len(b) || b[i] != ':' {
		return -1
	}
	return i + 1
}

// scanJSONString scans the rest of a string whose opening quote is just
// before i, returning the index after its closing quote, or -1. Like
// json.Valid, it does not check that the string is valid UTF-8.
func scanJSONString(b []byte, i int) int {
	for {
		// Find the next quote, backslash or control character eight
		// bytes at a time, and byte by byte in the last seven.
		if len(b)-i >= 8 {
			m := jsonStops(binary.LittleEndian.Uint64(b[i:]))
			if m == 0 {
				i += 8
				continue
			}
			i += bits.TrailingZeros64(m) >> 3
		} else {
			for i < len(b) && b[i] >= ' ' && b[i] != '"' && b[i] != '\\' {
				i++
			}
			if i == len(b) {
				return -1
			}
		}
		switch b[i] {
		case '"':
			return i + 1
		case '\\':
			if i+1 == len(b) {
				return -1
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if len(b)-i < 6 {
					return -1
				}
				for _, h := range b[i+2 : i+6] {
					if !isHex(h) {
						return -1
					}
				}
				i += 6
			default:
				return -1
			}
		default: // a control character
			return -1
		}
	}
}

// jsonStops returns the high bit of each byte of x, eight string bytes
// read little-endian, that is a quote, a backslash or a control
// character, and possibly of later bytes too: the classic zero-byte
// tests, whose lowest set bit is always exact.
func jsonStops(x uint64) uint64 {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	q := x ^ '"'*ones
	s := x ^ '\\'*ones
	return ((x-' '*ones)&^x | (q-ones)&^q | (s-ones)&^s) & highs
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// scanJSONScalar scans a literal or a number at i, returning the index
// after it, or -1.
func scanJSONScalar(b []byte, i int) int {
	switch b[i] {
	case 't':
		return scanJSONLiteral(b, i, "true")
	case 'f':
		return scanJSONLiteral(b, i, "false")
	case 'n':
		return scanJSONLiteral(b, i, "null")
	}
	return scanJSONNumber(b, i)
}

// scanJSONLiteral scans lit at i, returning the index after it, or -1.
func scanJSONLiteral(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// scanJSONNumber scans a number at i, returning the index after it, or
// -1: an optional minus, then 0 or a digit run not starting with 0, then
// an optional fraction and an optional exponent, each with at least one
// digit.
func scanJSONNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return -1
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
