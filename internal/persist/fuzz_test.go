package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"scaf/internal/fleet"
)

// fuzzSnapshot is the fixed canonical snapshot every fuzz input is a
// mutation of. Deterministic so the oracle map can be rebuilt per run.
func fuzzSnapshot() (Snapshot, map[string]fleet.Entry) {
	var snap Snapshot
	byKey := make(map[string]fleet.Entry)
	for i := 0; i < 8; i++ {
		e := fleet.Entry{
			Key:     fmt.Sprintf("d%02x|scaf|fp%d|loop|L%d", i, i%2, i),
			Value:   []byte(fmt.Sprintf(`{"loop":"L%d","deps":[%d,%d]}`, i, i*3, i*3+1)),
			Asserts: []string{fmt.Sprintf("spec/aa/%d", i%4), "spec/mod/chaos"},
		}
		snap.Entries = append(snap.Entries, e)
		byKey[e.Key] = e
	}
	snap.Revoked = []string{"spec/aa/9"}
	return snap, byKey
}

func fuzzSeeds(valid []byte) [][]byte {
	seeds := [][]byte{
		valid,
		valid[:len(valid)/2],   // truncate mid-record
		valid[:headerSize],     // header only
		valid[:headerSize+3],   // torn frame
		{},                     // empty
		[]byte("SCAFSNAPxxxx"), // magic, garbage version
	}
	flip := bytes.Clone(valid)
	flip[len(flip)/3] ^= 0x40 // bit-flip inside a payload
	seeds = append(seeds, flip)
	hdr := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(hdr[8:12], Version+7) // wrong version
	seeds = append(seeds, hdr)
	splice := append(bytes.Clone(valid[:64]), valid[20:]...) // splice
	seeds = append(seeds, splice)
	dup := append(bytes.Clone(valid), valid[headerSize:]...) // records repeated
	seeds = append(seeds, dup)
	// Reorder: re-encode with the entry order reversed — still valid,
	// exercises order independence — then truncate it mid-stream.
	snap, _ := fuzzSnapshot()
	rev := Snapshot{Revoked: snap.Revoked}
	for i := len(snap.Entries) - 1; i >= 0; i-- {
		rev.Entries = append(rev.Entries, snap.Entries[i])
	}
	reordered := Encode(rev)
	seeds = append(seeds, reordered, reordered[:2*len(reordered)/3])
	return seeds
}

// FuzzSnapshotCorruption feeds arbitrary mutations of a valid snapshot
// through the full load path and asserts the one invariant persistence
// must never lose: a corrupt snapshot degrades to misses. Concretely,
// whatever Decode salvages must be a subset of the canonical entries —
// byte-identical value and asserts on every surviving key, no
// fabricated keys — and restoring it through a shard must still block
// everything the surviving revoked set covers.
func FuzzSnapshotCorruption(f *testing.F) {
	snap, byKey := fuzzSnapshot()
	valid := Encode(snap)
	for _, s := range fuzzSeeds(valid) {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, st := Decode(data)
		for _, e := range got.Entries {
			want, ok := byKey[e.Key]
			if !ok {
				t.Fatalf("fabricated entry %q survived decode (stats %+v)", e.Key, st)
			}
			if !bytes.Equal(e.Value, want.Value) || !reflect.DeepEqual(e.Asserts, want.Asserts) {
				t.Fatalf("entry %q survived with mutated bytes (stats %+v)", e.Key, st)
			}
		}
		// Surviving revocations may be any subset or superset — extra
		// revocations only widen the guaranteed-miss set. What must hold
		// is that restore never serves an entry they cover.
		c := fleet.NewCache(0)
		c.Restore(got.Revoked, got.Entries)
		revoked := make(map[string]bool, len(got.Revoked))
		for _, k := range got.Revoked {
			revoked[k] = true
		}
		for _, e := range c.SnapshotEntries() {
			for _, a := range e.Asserts {
				if revoked[a] {
					t.Fatalf("restored entry %q predicated on surviving revocation %q", e.Key, a)
				}
			}
		}
	})
}
