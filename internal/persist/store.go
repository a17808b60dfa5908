package persist

import (
	"encoding/json"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"scaf/internal/fleet"
)

const (
	// SnapshotFile holds the last complete shard snapshot (atomically
	// replaced on every save). JournalFile is the append-only revoked-set
	// journal: revocations are durable the instant they happen, never
	// truncated, so even a crash between snapshots cannot lose one.
	SnapshotFile = "fleet.snap"
	JournalFile  = "revoked.journal"
)

// Snapshot is the persisted state of one shard: the monotone revoked
// set and the canonical entries. On restore the revocations are applied
// first, so an entry predicated on any of them can never come back.
type Snapshot struct {
	Revoked []string
	Entries []fleet.Entry
}

// DecodeStats reports what a decode accepted and dropped.
type DecodeStats struct {
	Entries   int    // entries accepted
	Revoked   int    // revoked keys accepted
	Dropped   int    // records skipped by semantic filters (key shape)
	Truncated bool   // the read stopped before the end of the file
	Reason    string // why, when Truncated
}

// entryRecord is the on-disk form of one cache entry. Sum is an inner
// CRC32 over key/value/asserts: together with the frame CRC a mutation
// must forge two independent checksums to alter an entry undetected.
type entryRecord struct {
	Key     string   `json:"key"`
	Value   []byte   `json:"value"`
	Asserts []string `json:"asserts,omitempty"`
	Sum     uint32   `json:"sum"`
}

// revokedRecord is one batch of revoked assertion keys.
type revokedRecord struct {
	Keys []string `json:"keys"`
}

func entrySum(e fleet.Entry) uint32 {
	h := crc32.NewIEEE()
	h.Write([]byte(e.Key))
	h.Write([]byte{0})
	h.Write(e.Value)
	h.Write([]byte{0})
	for _, a := range e.Asserts {
		h.Write([]byte(a))
		h.Write([]byte{0})
	}
	return h.Sum32()
}

// keyShapeOK is the fingerprint shape check: every fleet key is
// digest|scheme|fingerprint|query…, so a well-formed key has at least
// three separators and no empty digest/scheme/fingerprint segment. An
// entry failing it cannot have been published by this system.
func keyShapeOK(key string) bool {
	parts := strings.SplitN(key, "|", 4)
	if len(parts) < 4 {
		return false
	}
	return parts[0] != "" && parts[1] != "" && parts[2] != ""
}

// Encode renders snap as a complete snapshot file image: header, one
// revoked record (always present, even when empty — restores apply
// revocations before entries), then the entries in the order given.
func Encode(snap Snapshot) []byte {
	records := make([]Record, 0, 1+len(snap.Entries))
	rv, _ := json.Marshal(revokedRecord{Keys: snap.Revoked})
	records = append(records, Record{Kind: KindRevoked, Payload: rv})
	for _, e := range snap.Entries {
		er, _ := json.Marshal(entryRecord{Key: e.Key, Value: e.Value, Asserts: e.Asserts, Sum: entrySum(e)})
		records = append(records, Record{Kind: KindEntry, Payload: er})
	}
	return EncodeFile(records)
}

// Decode walks the validation ladder over data and returns whatever
// survives. The result is always safe to Restore: entries are a subset
// of what Encode wrote (byte-identical per surviving key), and extra or
// missing revocations only cause misses, never wrong answers.
func Decode(data []byte) (Snapshot, DecodeStats) {
	var snap Snapshot
	var st DecodeStats
	records, trunc := DecodeFile(data)
	st.Truncated = trunc != ""
	st.Reason = trunc
	for _, r := range records {
		switch r.Kind {
		case KindRevoked:
			var rv revokedRecord
			if err := json.Unmarshal(r.Payload, &rv); err != nil {
				// A payload that passes its CRC but is not our JSON is a
				// foreign or forged record; stop like any torn frame.
				st.Truncated, st.Reason = true, "malformed revoked record"
				return snap, st
			}
			snap.Revoked = append(snap.Revoked, rv.Keys...)
			st.Revoked += len(rv.Keys)
		case KindEntry:
			var er entryRecord
			if err := json.Unmarshal(r.Payload, &er); err != nil {
				st.Truncated, st.Reason = true, "malformed entry record"
				return snap, st
			}
			e := fleet.Entry{Key: er.Key, Value: er.Value, Asserts: er.Asserts}
			if entrySum(e) != er.Sum {
				st.Truncated, st.Reason = true, "entry checksum mismatch"
				return snap, st
			}
			if !keyShapeOK(e.Key) {
				st.Dropped++
				continue
			}
			snap.Entries = append(snap.Entries, e)
			st.Entries++
		default:
			st.Truncated, st.Reason = true, "unknown record kind"
			return snap, st
		}
	}
	return snap, st
}

// Stats counts what the store has loaded, rejected, and written.
// Rejected counts load-time drops of every flavor: truncation, semantic
// filters, and entries the shard refused because their predicates were
// already revoked.
type Stats struct {
	Loaded         int64 `json:"snapshot_loaded"`
	Rejected       int64 `json:"snapshot_rejected"`
	Entries        int64 `json:"snapshot_entries"`
	Saves          int64 `json:"snapshot_saves"`
	SaveErrors     int64 `json:"snapshot_save_errors"`
	JournalRecords int64 `json:"journal_records"`
	JournalErrors  int64 `json:"journal_errors"`
}

// Store manages one shard's persistence directory: the snapshot file
// and the append-only revoked-set journal.
type Store struct {
	dir string

	mu      sync.Mutex // serializes saves and journal appends
	journal *os.File

	loaded, rejected, entries    atomic.Int64
	saves, saveErrors, journaled atomic.Int64
	journalErrors                atomic.Int64
}

// NewStore opens (creating if needed) the persistence directory.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// SnapshotPath returns the snapshot file's path.
func (s *Store) SnapshotPath() string { return filepath.Join(s.dir, SnapshotFile) }

// JournalPath returns the revoked-set journal's path.
func (s *Store) JournalPath() string { return filepath.Join(s.dir, JournalFile) }

// Save atomically replaces the snapshot file with snap (see
// WriteFileAtomic: a crash mid-save leaves the previous snapshot intact).
func (s *Store) Save(snap Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := WriteFileAtomic(s.dir, SnapshotFile, Encode(snap)); err != nil {
		s.saveErrors.Add(1)
		return err
	}
	s.saves.Add(1)
	s.entries.Store(int64(len(snap.Entries)))
	return nil
}

// WriteFileAtomic replaces dir/name with data: it writes and fsyncs a
// temp file in dir, then renames it over name. The file is therefore
// never empty or partial after a crash or power loss, and its old
// contents survive any failure before the rename.
func WriteFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Load reads the snapshot and merges the revoked-set journal on top.
// Missing files are an empty (cold) state, not an error; corruption
// anywhere degrades to the validated prefix. The returned snapshot is
// ready for Cache.Restore — revocations first, then entries. It holds
// the store's lock, so it never reads a journal record or header that a
// concurrent AppendRevoked has half written.
func (s *Store) Load() (Snapshot, DecodeStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var snap Snapshot
	var st DecodeStats
	if data, err := os.ReadFile(s.SnapshotPath()); err == nil {
		snap, st = Decode(data)
	}
	// The journal holds only revoked records; an entry record there is
	// as foreign as a bad checksum and stops the read the same way.
	if data, err := os.ReadFile(s.JournalPath()); err == nil {
		jr, jst := DecodeJournal(data)
		snap.Revoked = append(snap.Revoked, jr...)
		st.Revoked += len(jr)
		if jst.Truncated && !st.Truncated {
			st.Truncated, st.Reason = true, "journal: "+jst.Reason
		}
		st.Dropped += jst.Dropped
	}
	return snap, st
}

// DecodeJournal decodes an append-only revoked-set journal image,
// returning the longest valid prefix of revoked keys.
func DecodeJournal(data []byte) ([]string, DecodeStats) {
	var keys []string
	var st DecodeStats
	records, trunc := DecodeFile(data)
	st.Truncated = trunc != ""
	st.Reason = trunc
	for _, r := range records {
		if r.Kind != KindRevoked {
			st.Truncated, st.Reason = true, "non-revoked record in journal"
			return keys, st
		}
		var rv revokedRecord
		if err := json.Unmarshal(r.Payload, &rv); err != nil {
			st.Truncated, st.Reason = true, "malformed revoked record"
			return keys, st
		}
		keys = append(keys, rv.Keys...)
		st.Revoked += len(rv.Keys)
	}
	return keys, st
}

// openJournal opens the revoked-set journal for appending, repairing
// the tail first. A crash mid-append can leave a torn record — or even
// a zero-length or partial-header file, if the crash hit between
// create and header write — and blindly appending after that garbage
// would strand every later (durably fsync-acked) record behind bytes
// DecodeJournal stops at. So the first open validates the existing
// bytes and truncates the file to its longest valid prefix; when even
// the header is unusable the file is rewritten from scratch (empty or
// partial header) or moved aside to *.corrupt (wrong magic/version: a
// foreign file is preserved, not destroyed). Called with s.mu held.
func (s *Store) openJournal() error {
	path := s.JournalPath()
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	valid := ValidPrefixLen(data)
	if valid < 0 && len(data) >= headerSize {
		if err := os.Rename(path, path+".corrupt"); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	repaired := false
	if valid < 0 {
		if err := f.Truncate(0); err == nil {
			_, err = f.Write(Header())
		} else {
			f.Close()
			return err
		}
		if err != nil {
			f.Close()
			return err
		}
		repaired = len(data) > 0
	} else {
		if valid < len(data) {
			if err := f.Truncate(int64(valid)); err != nil {
				f.Close()
				return err
			}
			repaired = true
		}
		if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
			f.Close()
			return err
		}
	}
	if repaired {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	s.journal = f
	return nil
}

// AppendRevoked durably appends keys to the revoked-set journal and
// syncs before returning — by the time a fleet broadcast's HTTP
// response goes out, the revocation has hit the disk too. The journal
// only ever shrinks to drop a torn tail (see openJournal): a snapshot
// may lag (it is retaken on drain), but a revocation, once journaled
// and acked, survives any crash. Every failure (open, write, fsync)
// is counted in Stats.JournalErrors so callers that cannot propagate
// the error still leave an operator-visible signal.
func (s *Store) AppendRevoked(keys []string) error {
	if len(keys) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		if err := s.openJournal(); err != nil {
			s.journalErrors.Add(1)
			return err
		}
	}
	payload, _ := json.Marshal(revokedRecord{Keys: keys})
	if _, err := s.journal.Write(AppendRecord(nil, Record{Kind: KindRevoked, Payload: payload})); err != nil {
		// A partial write leaves a torn tail; drop the handle so the
		// next append re-validates and truncates before writing.
		s.journal.Close()
		s.journal = nil
		s.journalErrors.Add(1)
		return err
	}
	if err := s.journal.Sync(); err != nil {
		s.journal.Close()
		s.journal = nil
		s.journalErrors.Add(1)
		return err
	}
	s.journaled.Add(int64(len(keys)))
	return nil
}

// NoteLoad records what a boot-time restore accepted and rejected so
// the numbers show up in /metrics.
func (s *Store) NoteLoad(inserted, rejected int) {
	s.loaded.Add(int64(inserted))
	s.rejected.Add(int64(rejected))
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Loaded:         s.loaded.Load(),
		Rejected:       s.rejected.Load(),
		Entries:        s.entries.Load(),
		Saves:          s.saves.Load(),
		SaveErrors:     s.saveErrors.Load(),
		JournalRecords: s.journaled.Load(),
		JournalErrors:  s.journalErrors.Load(),
	}
}

// Close releases the journal handle. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	err := s.journal.Close()
	s.journal = nil
	return err
}
