package core

import (
	"reflect"
	"sync"
	"testing"

	"scaf/internal/ir"
)

// fakePeer is an in-process CachePeer backed by a map keyed on the
// queries' describe() strings — the shape of the fleet tier without the
// wire. It records traffic so tests can assert when the peer was (not)
// consulted.
type fakePeer struct {
	mu      sync.Mutex
	modref  map[string]ModRefResponse
	gets    int
	puts    int
	lastAss []string
}

func newFakePeer() *fakePeer {
	return &fakePeer{modref: map[string]ModRefResponse{}}
}

func (p *fakePeer) GetModRef(q *ModRefQuery) (ModRefResponse, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gets++
	r, ok := p.modref[q.describe()]
	return r, ok
}

func (p *fakePeer) PutModRef(q *ModRefQuery, asserts []string, r ModRefResponse) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.puts++
	p.lastAss = asserts
	p.modref[q.describe()] = r
}

func specModules() []Module {
	a := Assertion{Module: "spec", Kind: "k", Cost: 7}
	m1 := &fakeModule{name: "spec", modref: func(q *ModRefQuery, h Handle) ModRefResponse {
		return ModRefSpec(NoModRef, "spec", a)
	}}
	m2 := &fakeModule{name: "base", modref: func(q *ModRefQuery, h Handle) ModRefResponse {
		return ModRefFact(Ref, "base")
	}}
	return []Module{m1, m2}
}

func mqN(i int64) *ModRefQuery {
	return &ModRefQuery{Loc: MemLoc{Ptr: ir.CI(i + 9), Size: 8}, Rel: Before}
}

// TestCachePeerRemoteHitMatchesLocal is the seam's core property: an
// orchestrator whose SharedCache misses locally but hits the peer returns
// exactly the response a fresh local resolution produces, while doing no
// module work — and the hit is visible in Stats.RemoteHits.
func TestCachePeerRemoteHitMatchesLocal(t *testing.T) {
	peer := newFakePeer()

	// Distinct queries; each instance gets its own structurally-equal
	// copies (fresh pointers, as across processes), while re-asks within
	// one instance reuse the same objects (pointer-keyed local cache).
	mkQueries := func() []*ModRefQuery {
		qs := make([]*ModRefQuery, 5)
		for i := range qs {
			qs[i] = mqN(int64(i))
		}
		return qs
	}

	// Instance A resolves fresh and publishes through its cache to the peer.
	cacheA := NewSharedCache()
	cacheA.SetPeer(peer)
	oA := NewOrchestrator(Config{Modules: specModules(), Shared: cacheA})
	qsA := mkQueries()
	var want []ModRefResponse
	for _, q := range qsA {
		want = append(want, oA.ModRef(q))
	}
	if peer.puts != 5 {
		t.Fatalf("peer saw %d puts, want 5", peer.puts)
	}
	if len(peer.lastAss) != 1 {
		t.Fatalf("published assert keys = %v, want exactly the spec assertion", peer.lastAss)
	}

	// Instance B: cold local cache, same peer. Every query must be a
	// remote hit, answer-identical, with zero module consultations.
	cacheB := NewSharedCache()
	cacheB.SetPeer(peer)
	qsB := mkQueries()
	oB := NewOrchestrator(Config{Modules: specModules(), Shared: cacheB})
	for i, q := range qsB {
		got := oB.ModRef(q)
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("query %d: remote-hit response %+v != fresh %+v", i, got, want[i])
		}
	}
	if evals := oB.Stats().ModuleEvals; evals != 0 {
		t.Errorf("instance B did %d module evals, want 0 (all remote hits)", evals)
	}
	if rh := oB.Stats().RemoteHits; rh != 5 {
		t.Errorf("RemoteHits = %d, want 5", rh)
	}
	if sh := oB.Stats().SharedHits; sh != 5 {
		t.Errorf("SharedHits = %d, want 5 (remote hits are shared hits)", sh)
	}

	// A remote hit installs locally: re-asking must not touch the peer.
	gets := peer.gets
	oB2 := NewOrchestrator(Config{Modules: specModules(), Shared: cacheB})
	oB2.ModRef(qsB[0])
	if peer.gets != gets {
		t.Errorf("re-ask consulted the peer (%d -> %d gets), want local hit", gets, peer.gets)
	}
	if oB2.Stats().RemoteHits != 0 || oB2.Stats().SharedHits != 1 {
		t.Errorf("re-ask stats = %+v, want one local shared hit", oB2.Stats())
	}
}

// staticRevoker revokes a fixed key set.
type staticRevoker map[string]bool

func (r staticRevoker) RevokedAssert(key string) bool { return r[key] }

// TestCachePeerRevokerBlocksRemote: the local Revoker stays authoritative
// over remote entries — a peer answer predicated on a locally-quarantined
// assertion must miss, exactly like a local entry would (the fleet-wide
// guaranteed-miss rule).
func TestCachePeerRevokerBlocksRemote(t *testing.T) {
	peer := newFakePeer()
	cacheA := NewSharedCache()
	cacheA.SetPeer(peer)
	oA := NewOrchestrator(Config{Modules: specModules(), Shared: cacheA})
	oA.ModRef(mqN(0))

	assertKey := Assertion{Module: "spec", Kind: "k", Cost: 7}.String()
	cacheB := NewSharedCache()
	cacheB.SetPeer(peer)
	cacheB.SetRevoker(staticRevoker{assertKey: true})
	mods := specModules()
	oB := NewOrchestrator(Config{Modules: mods, Shared: cacheB})
	oB.ModRef(mqN(0))
	if oB.Stats().RemoteHits != 0 {
		t.Fatalf("revoked remote entry served: %+v", oB.Stats())
	}
	if oB.Stats().ModuleEvals == 0 {
		t.Fatal("query must resolve fresh when the remote entry is revoked")
	}
}

// TestSetPeerLookupsOff: with lookups disarmed the peer is never
// consulted, but canonical publications still flow to it.
func TestSetPeerLookupsOff(t *testing.T) {
	peer := newFakePeer()
	cache := NewSharedCache()
	cache.SetPeer(peer)
	o := NewOrchestrator(Config{Modules: specModules(), Shared: cache})
	o.SetPeerLookups(false)
	o.ModRef(mqN(0))
	if peer.gets != 0 {
		t.Errorf("peer consulted %d times with lookups off, want 0", peer.gets)
	}
	if peer.puts != 1 {
		t.Errorf("peer saw %d puts, want 1 (publication always flows)", peer.puts)
	}
}
