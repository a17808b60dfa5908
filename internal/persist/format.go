// Package persist is the durable tier under the fleet cache: it
// snapshots a shard's canonical entries to disk on drain (and
// optionally on a timer) and loads them on boot, so a rolling restart
// starts warm instead of re-paying the full dependence-analysis cost.
//
// The design rides on the same property as the fleet tier itself: every
// persisted value is a canonical entry whose key embeds everything that
// could change the answer (digest|scheme|quarantine-fingerprint|query),
// so a stale record can only fail to match — a miss — never answer
// wrongly. What persistence must add is protection against the disk
// lying: a truncated, bit-flipped, spliced, or wrong-version file must
// also degrade to misses. Every load therefore re-validates end-to-end:
//
//  1. header magic + version — wrong file or format: reject everything;
//  2. per-record length framing with a hard size bound — a corrupt
//     length cannot force a huge allocation;
//  3. per-record CRC32 over the payload — framing-level corruption
//     stops the read at the longest valid prefix (append-only files
//     torn mid-record lose only the tail);
//  4. per-entry inner CRC32 over key/value/asserts, stored inside the
//     payload — a mutation would have to forge two independent
//     checksums to smuggle a changed entry through;
//  5. the key fingerprint shape check — an entry whose key does not
//     look like a fleet key is dropped (skip, not stop: shape is a
//     semantic filter, not evidence the file is torn).
//
// Structural violations (2–3) end the read; semantic filters (5) skip
// the record and continue. Either way the result is a subset of what
// was written, and Restore re-applies the revoked-set check on top, so
// the worst a corrupt snapshot can do is start cold.
package persist

import (
	"encoding/binary"
	"hash/crc32"
)

const (
	// magic identifies a persist file; version gates the format.
	magic   = "SCAFSNAP"
	Version = 1

	// headerSize is magic + uint32 version.
	headerSize = len(magic) + 4

	// frameSize is the per-record prefix: kind byte, payload length,
	// payload CRC32 (IEEE).
	frameSize = 1 + 4 + 4

	// MaxRecord bounds one record's payload so a corrupt length field
	// cannot force a huge allocation.
	MaxRecord = 32 << 20
)

// Record kinds. Unknown kinds stop a read (a torn or foreign file, not
// a future format — versions gate those).
const (
	KindEntry    byte = 'e' // one fleet cache entry
	KindRevoked  byte = 'r' // a batch of revoked assertion keys
	KindCounter  byte = 'n' // the router's session-ID counter
	KindSessions byte = 's' // one live router session: its create body and info
	KindMembers  byte = 'm' // one router fleet-membership record (id=url)
)

// Record is one framed unit in a persist file.
type Record struct {
	Kind    byte
	Payload []byte
}

// Header returns the 12-byte file header.
func Header() []byte {
	h := make([]byte, headerSize)
	copy(h, magic)
	binary.LittleEndian.PutUint32(h[len(magic):], Version)
	return h
}

// AppendRecord appends r's framed bytes to dst and returns the result.
func AppendRecord(dst []byte, r Record) []byte {
	var frame [frameSize]byte
	frame[0] = r.Kind
	binary.LittleEndian.PutUint32(frame[1:5], uint32(len(r.Payload)))
	binary.LittleEndian.PutUint32(frame[5:9], crc32.ChecksumIEEE(r.Payload))
	dst = append(dst, frame[:]...)
	return append(dst, r.Payload...)
}

// EncodeFile frames records into a complete file image (header first).
func EncodeFile(records []Record) []byte {
	out := Header()
	for _, r := range records {
		out = AppendRecord(out, r)
	}
	return out
}

// ValidPrefixLen returns the byte length of the longest decodable
// prefix of data — the header plus every complete, checksum-valid
// frame — or -1 when the header itself is absent or invalid (short
// file, bad magic, unsupported version), meaning no prefix is
// salvageable. Append-only writers use it to repair a torn tail
// before appending: bytes past the valid prefix would otherwise
// strand every later record behind garbage DecodeFile stops at.
func ValidPrefixLen(data []byte) int {
	if len(data) < headerSize || string(data[:len(magic)]) != magic ||
		binary.LittleEndian.Uint32(data[len(magic):headerSize]) != Version {
		return -1
	}
	off := headerSize
	for len(data)-off >= frameSize {
		n := binary.LittleEndian.Uint32(data[off+1 : off+5])
		sum := binary.LittleEndian.Uint32(data[off+5 : off+9])
		body := off + frameSize
		if n > MaxRecord || uint32(len(data)-body) < n {
			break
		}
		if crc32.ChecksumIEEE(data[body:body+int(n)]) != sum {
			break
		}
		off = body + int(n)
	}
	return off
}

// DecodeFile returns the longest valid prefix of records in data and,
// when the read stopped early, a non-empty reason. A bad header rejects
// the whole file; a bad frame, oversized length, or CRC mismatch stops
// at that record — everything before it is intact by checksum.
func DecodeFile(data []byte) (records []Record, trunc string) {
	if len(data) < headerSize {
		return nil, "short header"
	}
	if string(data[:len(magic)]) != magic {
		return nil, "bad magic"
	}
	if v := binary.LittleEndian.Uint32(data[len(magic):headerSize]); v != Version {
		return nil, "unsupported version"
	}
	off := headerSize
	for off < len(data) {
		if len(data)-off < frameSize {
			return records, "torn frame"
		}
		kind := data[off]
		n := binary.LittleEndian.Uint32(data[off+1 : off+5])
		sum := binary.LittleEndian.Uint32(data[off+5 : off+9])
		off += frameSize
		if n > MaxRecord {
			return records, "oversized record"
		}
		if uint32(len(data)-off) < n {
			return records, "torn payload"
		}
		payload := data[off : off+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return records, "record checksum mismatch"
		}
		records = append(records, Record{Kind: kind, Payload: payload})
		off += int(n)
	}
	return records, ""
}
