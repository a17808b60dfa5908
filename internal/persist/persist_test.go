package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"scaf/internal/fleet"
)

// testSnapshot builds a deterministic snapshot with fleet-shaped keys.
func testSnapshot(n int) Snapshot {
	var snap Snapshot
	for i := 0; i < n; i++ {
		snap.Entries = append(snap.Entries, fleet.Entry{
			Key:     fmt.Sprintf("d%04x|scaf|fp0|mr|k%d", i, i),
			Value:   []byte(fmt.Sprintf(`{"answer":%d}`, i*7)),
			Asserts: []string{fmt.Sprintf("assert/%d", i%3)},
		})
	}
	snap.Revoked = []string{"assert/revoked"}
	return snap
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	snap := testSnapshot(8)
	got, st := Decode(Encode(snap))
	if st.Truncated || st.Dropped != 0 {
		t.Fatalf("clean decode reported trouble: %+v", st)
	}
	if !reflect.DeepEqual(got.Revoked, snap.Revoked) {
		t.Fatalf("revoked round-trip: got %v want %v", got.Revoked, snap.Revoked)
	}
	if !reflect.DeepEqual(got.Entries, snap.Entries) {
		t.Fatalf("entries round-trip mismatch")
	}
}

func TestDecodeRejectsHeader(t *testing.T) {
	snap := testSnapshot(2)
	valid := Encode(snap)

	cases := map[string][]byte{
		"empty":        {},
		"short header": valid[:6],
		"bad magic":    append([]byte("NOTASNAP"), valid[8:]...),
	}
	wrongVer := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(wrongVer[8:12], Version+1)
	cases["wrong version"] = wrongVer

	for name, data := range cases {
		got, st := Decode(data)
		if len(got.Entries) != 0 || len(got.Revoked) != 0 {
			t.Errorf("%s: decoded state from a rejected file: %+v", name, got)
		}
		if !st.Truncated {
			t.Errorf("%s: expected a truncation reason", name)
		}
	}
}

// TestDecodePrefixProperty corrupts a snapshot at every byte offset and
// asserts the result is always a subset of the original entries with
// byte-identical values — the corruption-degrades-to-miss invariant,
// exhaustively for single-byte flips.
func TestDecodePrefixProperty(t *testing.T) {
	snap := testSnapshot(6)
	want := make(map[string]fleet.Entry)
	for _, e := range snap.Entries {
		want[e.Key] = e
	}
	valid := Encode(snap)

	check := func(name string, data []byte) {
		t.Helper()
		got, _ := Decode(data)
		for _, e := range got.Entries {
			w, ok := want[e.Key]
			if !ok {
				t.Fatalf("%s: fabricated key %q survived decode", name, e.Key)
			}
			if !bytes.Equal(e.Value, w.Value) || !reflect.DeepEqual(e.Asserts, w.Asserts) {
				t.Fatalf("%s: entry %q mutated in flight", name, e.Key)
			}
		}
	}

	for off := 0; off < len(valid); off++ {
		mut := bytes.Clone(valid)
		mut[off] ^= 0x41
		check(fmt.Sprintf("flip@%d", off), mut)
	}
	for cut := 0; cut < len(valid); cut += 7 {
		check(fmt.Sprintf("trunc@%d", cut), valid[:cut])
	}
	// Splice: a chunk of the file repeated mid-stream.
	splice := append(bytes.Clone(valid[:40]), valid[12:]...)
	check("splice", splice)
	// Duplicate records appended — first-write-wins makes repeats no-ops.
	check("self-append", append(bytes.Clone(valid), valid[12:]...))
}

func TestDecodeDropsMalformedKeys(t *testing.T) {
	snap := testSnapshot(2)
	snap.Entries = append(snap.Entries, fleet.Entry{Key: "not-a-fleet-key", Value: []byte("x")})
	got, st := Decode(Encode(snap))
	if st.Dropped != 1 || len(got.Entries) != 2 {
		t.Fatalf("shape filter: dropped=%d entries=%d", st.Dropped, len(got.Entries))
	}
}

func TestRestoreBlocksRevokedEntries(t *testing.T) {
	snap := testSnapshot(6) // asserts cycle over assert/0..2
	snap.Revoked = append(snap.Revoked, "assert/1")
	got, _ := Decode(Encode(snap))
	c := fleet.NewCache(0)
	inserted, rejected := c.Restore(got.Revoked, got.Entries)
	if rejected == 0 {
		t.Fatal("no entry was blocked by the revoked set")
	}
	if inserted+rejected != len(got.Entries) {
		t.Fatalf("restore accounting: %d+%d != %d", inserted, rejected, len(got.Entries))
	}
	for _, e := range got.Entries {
		_, ok := c.Get(e.Key)
		predicated := false
		for _, a := range e.Asserts {
			if a == "assert/1" {
				predicated = true
			}
		}
		if predicated && ok {
			t.Fatalf("revoked-predicated entry %q resurrected", e.Key)
		}
		if !predicated && !ok {
			t.Fatalf("clean entry %q lost in restore", e.Key)
		}
	}
}

func TestStoreSaveLoadAndJournal(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot(4)
	if err := st.Save(snap); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendRevoked([]string{"assert/0"}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendRevoked([]string{"assert/journal-2"}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	loaded, ls := st2.Load()
	if ls.Truncated {
		t.Fatalf("clean load truncated: %s", ls.Reason)
	}
	wantRevoked := map[string]bool{"assert/revoked": true, "assert/0": true, "assert/journal-2": true}
	gotRevoked := map[string]bool{}
	for _, k := range loaded.Revoked {
		gotRevoked[k] = true
	}
	if !reflect.DeepEqual(gotRevoked, wantRevoked) {
		t.Fatalf("revoked merge: got %v want %v", gotRevoked, wantRevoked)
	}
	c := fleet.NewCache(0)
	inserted, rejected := c.Restore(loaded.Revoked, loaded.Entries)
	// assert/0 came in via the journal after the snapshot was taken, so
	// the two entries predicated on it must be blocked at restore.
	if rejected != 2 || inserted != 2 {
		t.Fatalf("journal-after-snapshot: inserted=%d rejected=%d", inserted, rejected)
	}
}

func TestStoreLoadMissingIsCold(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap, ls := st.Load()
	if len(snap.Entries) != 0 || len(snap.Revoked) != 0 || ls.Truncated {
		t.Fatalf("missing files should load cold: %+v %+v", snap, ls)
	}
}

func TestStoreCorruptJournalPrefix(t *testing.T) {
	dir := t.TempDir()
	st, _ := NewStore(dir)
	st.AppendRevoked([]string{"a/1"})
	st.AppendRevoked([]string{"a/2"})
	st.Close()

	// Tear the journal mid-record: the first append must survive.
	data, err := os.ReadFile(st.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.JournalPath(), data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	st2, _ := NewStore(dir)
	snap, ls := st2.Load()
	if !ls.Truncated {
		t.Fatal("torn journal not reported")
	}
	if len(snap.Revoked) != 1 || snap.Revoked[0] != "a/1" {
		t.Fatalf("journal prefix: got %v want [a/1]", snap.Revoked)
	}
}

// TestJournalTornTailRepairedOnAppend pins the crash-mid-append shape:
// a torn record at the journal's tail must be truncated away on the
// next open, so revocations journaled (and fsync-acked) after the
// crash land in a decodable file instead of being stranded behind
// garbage the decoder stops at.
func TestJournalTornTailRepairedOnAppend(t *testing.T) {
	dir := t.TempDir()
	st, _ := NewStore(dir)
	if err := st.AppendRevoked([]string{"a/1"}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Simulate a crash mid-append: a partial frame after the last
	// complete record.
	f, err := os.OpenFile(st.JournalPath(), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{KindRevoked, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, _ := NewStore(dir)
	defer st2.Close()
	if err := st2.AppendRevoked([]string{"a/2"}); err != nil {
		t.Fatal(err)
	}
	snap, ls := st2.Load()
	if ls.Truncated {
		t.Fatalf("repaired journal still reads torn: %s", ls.Reason)
	}
	if !reflect.DeepEqual(snap.Revoked, []string{"a/1", "a/2"}) {
		t.Fatalf("post-repair revocations: got %v want [a/1 a/2]", snap.Revoked)
	}
}

// TestJournalHeaderRepairedOnAppend pins the crash-between-create-and-
// header shape: an existing zero-length (or partial-header) journal
// must get a fresh header on the next open, not be appended to
// headerless — which would make every future record unreadable.
func TestJournalHeaderRepairedOnAppend(t *testing.T) {
	for name, stub := range map[string][]byte{
		"empty":          {},
		"partial header": []byte(magic[:5]),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, _ := NewStore(dir)
			if err := os.WriteFile(st.JournalPath(), stub, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := st.AppendRevoked([]string{"a/1"}); err != nil {
				t.Fatal(err)
			}
			st.Close()

			st2, _ := NewStore(dir)
			defer st2.Close()
			snap, ls := st2.Load()
			if ls.Truncated {
				t.Fatalf("journal unreadable after header repair: %s", ls.Reason)
			}
			if !reflect.DeepEqual(snap.Revoked, []string{"a/1"}) {
				t.Fatalf("revocations after header repair: got %v want [a/1]", snap.Revoked)
			}
		})
	}
}

// TestJournalForeignFileRotatedAside: a file with a valid length but
// wrong magic is not ours to truncate — it is moved to *.corrupt and
// the journal restarts fresh.
func TestJournalForeignFileRotatedAside(t *testing.T) {
	dir := t.TempDir()
	st, _ := NewStore(dir)
	foreign := []byte("NOTASNAPxxxxsome other file's bytes")
	if err := os.WriteFile(st.JournalPath(), foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendRevoked([]string{"a/1"}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	moved, err := os.ReadFile(st.JournalPath() + ".corrupt")
	if err != nil || !bytes.Equal(moved, foreign) {
		t.Fatalf("foreign file not preserved aside: %v", err)
	}
	st2, _ := NewStore(dir)
	defer st2.Close()
	snap, ls := st2.Load()
	if ls.Truncated || !reflect.DeepEqual(snap.Revoked, []string{"a/1"}) {
		t.Fatalf("journal after rotate: revoked=%v truncated=%v (%s)", snap.Revoked, ls.Truncated, ls.Reason)
	}
}

// TestSnapshotDuringDrain snapshots a live shard while concurrent
// writers, readers, and revokers hammer it (run under -race in CI).
// Every file written must decode cleanly and contain only complete
// canonical entries — value and asserts exactly what the writer
// published — and no loaded entry may be predicated on a revocation
// the same load sees: the only-publish-complete rule extended to disk.
func TestSnapshotDuringDrain(t *testing.T) {
	c := fleet.NewCache(0)
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// Journal every revocation as the server wiring does, so a snapshot
	// raced by a revocation is still blocked at load by the journal.
	c.SetRevokeHook(func(keys []string) { store.AppendRevoked(keys) })

	canonical := func(i int) fleet.Entry {
		return fleet.Entry{
			Key:     fmt.Sprintf("d%02x|scaf|fp|loop|L%d", i%16, i),
			Value:   []byte(fmt.Sprintf(`{"i":%d,"bytes":"canonical-%d"}`, i, i*31)),
			Asserts: []string{fmt.Sprintf("spec/%d", i%8)},
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Put(canonical(i))
				c.Get(canonical(i / 2).Key)
				if i%37 == 0 {
					c.InvalidateAsserts([]string{fmt.Sprintf("spec/%d", (i/37)%8)})
				}
				i += 4
			}
		}(w)
	}

	for iter := 0; iter < 25; iter++ {
		if err := store.Save(Snapshot{Revoked: c.RevokedKeys(), Entries: c.SnapshotEntries()}); err != nil {
			t.Fatal(err)
		}
		loaded, ls := store.Load()
		if ls.Truncated {
			t.Fatalf("iter %d: snapshot written under load failed validation: %s", iter, ls.Reason)
		}
		revoked := make(map[string]bool, len(loaded.Revoked))
		for _, k := range loaded.Revoked {
			revoked[k] = true
		}
		for _, e := range loaded.Entries {
			var i int
			if _, err := fmt.Sscanf(e.Key[strings.LastIndexByte(e.Key, 'L')+1:], "%d", &i); err != nil {
				t.Fatalf("iter %d: unparseable key %q", iter, e.Key)
			}
			want := canonical(i)
			if e.Key != want.Key || !bytes.Equal(e.Value, want.Value) || !reflect.DeepEqual(e.Asserts, want.Asserts) {
				t.Fatalf("iter %d: incomplete or mutated entry on disk: %+v", iter, e)
			}
		}
		// Restoring must block anything the merged revoked set covers.
		rc := fleet.NewCache(0)
		rc.Restore(loaded.Revoked, loaded.Entries)
		for _, e := range rc.SnapshotEntries() {
			for _, a := range e.Asserts {
				if revoked[a] {
					t.Fatalf("iter %d: entry %q predicated on revoked %q survived restore", iter, e.Key, a)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}
