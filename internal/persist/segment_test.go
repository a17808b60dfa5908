package persist

import (
	"fmt"
	"testing"

	"scaf/internal/fleet"
)

// TestSegmentTransfer pins the segment-scoped transfer path the live
// cutover uses: Segment selects exactly the entries a target node owns
// under a given ring while carrying the full revoked set, the selection
// survives an Encode/Decode round trip byte-identically, and corruption
// of the transferred image degrades to the valid prefix — cold segments,
// never wrong ones.
func TestSegmentTransfer(t *testing.T) {
	ring := fleet.NewRing([]string{"b0", "b1", "j0"}, 0)
	var snap Snapshot
	snap.Revoked = []string{"mod/assert@1", "mod/assert@2"}
	perOwner := map[string]int{}
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("dig%d|scaf|fp|loop|l%d", i, i)
		snap.Entries = append(snap.Entries, fleet.Entry{
			Key:     key,
			Value:   []byte(fmt.Sprintf("value-%d", i)),
			Asserts: []string{"mod/assert@3"},
		})
		perOwner[ring.Owner(key)]++
	}
	if perOwner["j0"] == 0 || perOwner["b0"] == 0 {
		t.Fatalf("keys did not spread across the ring: %v", perOwner)
	}

	seg := Segment(snap, ring, "j0")
	if len(seg.Entries) != perOwner["j0"] {
		t.Fatalf("segment holds %d entries, ring places %d on j0", len(seg.Entries), perOwner["j0"])
	}
	for _, e := range seg.Entries {
		if ring.Owner(e.Key) != "j0" {
			t.Fatalf("segment leaked %q (owner %s)", e.Key, ring.Owner(e.Key))
		}
	}
	if len(seg.Revoked) != len(snap.Revoked) {
		t.Fatalf("segment carries %d revocations, want the full set (%d)", len(seg.Revoked), len(snap.Revoked))
	}

	// Round trip: the wire image restores exactly the segment.
	data := Encode(seg)
	got, ds := Decode(data)
	if ds.Truncated || ds.Dropped != 0 {
		t.Fatalf("clean image decoded dirty: %+v", ds)
	}
	if len(got.Entries) != len(seg.Entries) || len(got.Revoked) != len(seg.Revoked) {
		t.Fatalf("round trip lost records: %d/%d entries, %d/%d revoked",
			len(got.Entries), len(seg.Entries), len(got.Revoked), len(seg.Revoked))
	}
	for i, e := range got.Entries {
		w := seg.Entries[i]
		if e.Key != w.Key || string(e.Value) != string(w.Value) {
			t.Fatalf("entry %d mutated in transit: %q vs %q", i, e.Key, w.Key)
		}
	}

	// A bit flip mid-transfer stops the read at the valid prefix; the
	// receiver restores fewer entries, never different ones.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x40
	part, ds := Decode(corrupt)
	if !ds.Truncated {
		t.Fatal("corrupted image decoded as clean")
	}
	if len(part.Entries) >= len(seg.Entries) {
		t.Fatalf("corruption lost nothing (%d entries)", len(part.Entries))
	}
	for i, e := range part.Entries {
		if e.Key != seg.Entries[i].Key {
			t.Fatalf("corrupted image reordered entries at %d", i)
		}
	}

	// Restore on the receiver honors the carried revocations: entries
	// predicated on a revoked assertion are rejected, not installed.
	recv := fleet.NewCache(0)
	poisoned := Snapshot{
		Revoked: []string{"mod/assert@3"},
		Entries: seg.Entries,
	}
	inserted, rejected := recv.Restore(poisoned.Revoked, poisoned.Entries)
	if inserted != 0 || rejected != len(seg.Entries) {
		t.Fatalf("restore under revocation: inserted=%d rejected=%d, want 0/%d",
			inserted, rejected, len(seg.Entries))
	}
}
