package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// The peer protocol: five endpoints, JSON bodies, mounted by each backend
// under /fleet/. Everything is idempotent — cache puts are first-write-
// wins, recovery is monotone — so peers retry or drop freely without
// coordination.
//
//	POST {prefix}cache/get  GetRequest -> GetResponse   batch lookup
//	PUT  {prefix}cache      PutRequest -> PutResponse   batch publish
//	POST {prefix}recovery   RecoveryRequest -> {}       revoke asserts fleet-wide
//	GET  {prefix}state      StateResponse               revoked set, for rejoin
//	GET  {prefix}stats      CacheStats                  shard counters

// GetRequest asks a peer for the entries it holds for Keys.
type GetRequest struct {
	Keys []string `json:"keys"`
}

// GetResponse carries the subset of requested entries the peer holds.
type GetResponse struct {
	Entries []Entry `json:"entries,omitempty"`
}

// PutRequest publishes a batch of canonical entries to a peer.
type PutRequest struct {
	Entries []Entry `json:"entries"`
}

// PutResponse reports how many entries the peer inserted (duplicates and
// revoked-predicate entries are silently skipped).
type PutResponse struct {
	Inserted int `json:"inserted"`
}

// RecoveryRequest replicates a recovery event: the assertion keys being
// revoked, the modules being quarantined alongside them (if the event was
// a module panic), the instance where the violation was observed, and an
// opaque scope (the embedding server uses the session's program digest)
// so receivers apply the event only to matching state.
type RecoveryRequest struct {
	Asserts []string `json:"asserts,omitempty"`
	Modules []string `json:"modules,omitempty"`
	Origin  string   `json:"origin,omitempty"`
	Scope   string   `json:"scope,omitempty"`
}

// RecoveryResponse acknowledges a replicated recovery event.
type RecoveryResponse struct {
	Removed int `json:"removed"`
}

// StateResponse is the monotone recovery state a rejoining instance syncs.
type StateResponse struct {
	Revoked []string `json:"revoked,omitempty"`
	Entries int      `json:"entries"`
}

// MembersRequest updates a peer's membership view: Add maps new node IDs
// to base URLs, Remove lists departed node IDs. Both directions are
// idempotent, so the router re-broadcasts membership freely.
type MembersRequest struct {
	Add    map[string]string `json:"add,omitempty"`
	Remove []string          `json:"remove,omitempty"`
}

// MembersResponse echoes the peer's post-update ring membership.
type MembersResponse struct {
	Nodes []string `json:"nodes"`
}

// Handler serves the peer protocol over a shard. OnRecovery, when set, is
// invoked after the shard is invalidated so the embedding server can apply
// the event to its sessions (quarantine + epoch bump); it runs on the
// request goroutine, so replication is synchronous end to end. Tier, when
// set, additionally mounts the members endpoint so the router can push
// live membership changes into this instance's ring.
type Handler struct {
	Cache      *Cache
	OnRecovery func(RecoveryRequest)
	Tier       *Tier
}

// maxPeerBody bounds peer request bodies; batches are capped well below
// this by DefaultMaxBatch.
const maxPeerBody = 32 << 20

// Register mounts the protocol on mux under prefix (normally "/fleet/").
func (h *Handler) Register(mux *http.ServeMux, prefix string) {
	mux.HandleFunc(prefix+"cache/get", h.handleGet)
	mux.HandleFunc(prefix+"cache", h.handlePut)
	mux.HandleFunc(prefix+"recovery", h.handleRecovery)
	mux.HandleFunc(prefix+"state", h.handleState)
	mux.HandleFunc(prefix+"stats", h.handleStats)
	if h.Tier != nil {
		mux.HandleFunc(prefix+"members", h.handleMembers)
	}
}

func (h *Handler) handleMembers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req MembersRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// Removals first: a node moving to a new URL arrives as remove+add.
	for _, id := range req.Remove {
		h.Tier.RemovePeer(id)
	}
	for id, base := range req.Add {
		h.Tier.AddPeer(id, base)
	}
	writePeerJSON(w, MembersResponse{Nodes: h.Tier.Stats().Nodes})
}

func (h *Handler) handleGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req GetRequest
	if !decodeBody(w, r, &req) {
		return
	}
	writePeerJSON(w, GetResponse{Entries: h.Cache.GetBatch(req.Keys)})
}

func (h *Handler) handlePut(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPut {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req PutRequest
	if !decodeBody(w, r, &req) {
		return
	}
	writePeerJSON(w, PutResponse{Inserted: h.Cache.PutBatch(req.Entries)})
}

func (h *Handler) handleRecovery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req RecoveryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	removed := h.Cache.InvalidateAsserts(req.Asserts)
	if h.OnRecovery != nil {
		h.OnRecovery(req)
	}
	writePeerJSON(w, RecoveryResponse{Removed: removed})
}

func (h *Handler) handleState(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writePeerJSON(w, StateResponse{Revoked: h.Cache.RevokedKeys(), Entries: h.Cache.Len()})
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writePeerJSON(w, h.Cache.Stats())
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxPeerBody))
	if err != nil {
		http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(w, "decode: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writePeerJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// Client speaks the peer protocol to one remote instance.
type Client struct {
	base string
	hc   *http.Client
}

// DefaultPeerTimeout bounds each peer RPC. Peer traffic is an
// optimization (cache) or a small state transfer (recovery), never a
// large compute — a second of silence means the peer is gone.
const DefaultPeerTimeout = 2 * time.Second

// NewClient returns a client for the peer at base (e.g.
// "http://127.0.0.1:8091"). timeout <= 0 selects DefaultPeerTimeout.
func NewClient(base string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = DefaultPeerTimeout
	}
	return &Client{base: base, hc: &http.Client{Timeout: timeout}}
}

// Base returns the peer's base URL.
func (c *Client) Base() string { return c.base }

// CloseIdle drops pooled connections to the peer.
func (c *Client) CloseIdle() { c.hc.CloseIdleConnections() }

// Get fetches the entries the peer holds for keys.
func (c *Client) Get(keys []string) ([]Entry, error) {
	return c.GetCtx(context.Background(), keys)
}

// GetCtx is Get under a caller-supplied context: the query path uses it
// to give each remote lookup a hard budget tighter than the client's
// transport timeout, so a stalled peer degrades to a miss instead of
// blocking the query.
func (c *Client) GetCtx(ctx context.Context, keys []string) ([]Entry, error) {
	var resp GetResponse
	if err := c.roundTripCtx(ctx, http.MethodPost, "/fleet/cache/get", GetRequest{Keys: keys}, &resp); err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// Members pushes a membership update to the peer and returns its
// post-update ring.
func (c *Client) Members(req MembersRequest) (MembersResponse, error) {
	var resp MembersResponse
	err := c.roundTrip(http.MethodPost, "/fleet/members", req, &resp)
	return resp, err
}

// Put publishes entries to the peer, returning how many it inserted.
func (c *Client) Put(entries []Entry) (int, error) {
	var resp PutResponse
	if err := c.roundTrip(http.MethodPut, "/fleet/cache", PutRequest{Entries: entries}, &resp); err != nil {
		return 0, err
	}
	return resp.Inserted, nil
}

// Recovery replicates a recovery event to the peer.
func (c *Client) Recovery(req RecoveryRequest) error {
	var resp RecoveryResponse
	return c.roundTrip(http.MethodPost, "/fleet/recovery", req, &resp)
}

// State fetches the peer's monotone recovery state.
func (c *Client) State() (StateResponse, error) {
	var resp StateResponse
	err := c.roundTrip(http.MethodGet, "/fleet/state", nil, &resp)
	return resp, err
}

// Stats fetches the peer's shard counters.
func (c *Client) Stats() (CacheStats, error) {
	var resp CacheStats
	err := c.roundTrip(http.MethodGet, "/fleet/stats", nil, &resp)
	return resp, err
}

func (c *Client) roundTrip(method, path string, reqBody, respBody any) error {
	return c.roundTripCtx(context.Background(), method, path, reqBody, respBody)
}

func (c *Client) roundTripCtx(ctx context.Context, method, path string, reqBody, respBody any) error {
	var body io.Reader
	if reqBody != nil {
		b, err := json.Marshal(reqBody)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("peer %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, respBody)
}
