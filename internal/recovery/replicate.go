package recovery

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// This file is the quarantine's fleet seam: a content fingerprint that
// names the recovery state an answer was produced under, and the union
// the fleet router replicates. Together they give a fleet of instances
// the single-process guarantee — an assertion violated on one copy of a
// session is revoked in every copy before the violating request is
// answered, and cache keys carrying the fingerprint can only match
// between instances in identical recovery states.

// Fingerprint returns a stable, order-independent content hash of the
// quarantined assertion and module sets. Two quarantines — in different
// processes, built in different event orders — fingerprint equal exactly
// when they have withdrawn the same sets. Event details, repeats, and
// counters do not contribute: they describe how the state was reached,
// not what it withdraws.
func (q *Quarantine) Fingerprint() string {
	q.mu.RLock()
	defer q.mu.RUnlock()
	var h uint64
	for k := range q.asserts {
		h ^= fnvSum("a|" + k)
	}
	for m := range q.modules {
		h ^= fnvSum("m|" + m)
	}
	return fmt.Sprintf("%016x", h)
}

func fnvSum(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// MergeSnapshots unions the withdrawn sets of several quarantine
// snapshots into one (sorted, deduplicated; counters and event logs do
// not merge — they describe each instance's history, not the state).
// The fleet router uses it to bring every copy of a session to one
// state, when a reply names a new fingerprint and when it catches up a
// joining or rejoining backend: because quarantine is monotone, the
// union over the backends is always a safe target state, and each copy
// that lacks part of it is sent only what it lacks.
func MergeSnapshots(snaps ...*Snapshot) Snapshot {
	asserts := map[string]bool{}
	modules := map[string]bool{}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for _, k := range s.Asserts {
			asserts[k] = true
		}
		for _, m := range s.Modules {
			modules[m] = true
		}
	}
	out := Snapshot{
		Asserts: make([]string, 0, len(asserts)),
		Modules: make([]string, 0, len(modules)),
	}
	for k := range asserts {
		out.Asserts = append(out.Asserts, k)
	}
	for m := range modules {
		out.Modules = append(out.Modules, m)
	}
	sort.Strings(out.Asserts)
	sort.Strings(out.Modules)
	return out
}
