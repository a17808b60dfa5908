package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// The peer protocol: three endpoints, JSON bodies, mounted by each
// backend under /fleet/. Everything is idempotent — recovery is monotone,
// membership updates converge — so peers retry or drop freely without
// coordination. Cache entries never travel over it: a backend reads and
// publishes its own shard, and a membership move streams segments
// through the server's /fleet/segment and /fleet/restore.
//
//	POST {prefix}recovery  RecoveryRequest -> {}              revoke asserts fleet-wide
//	GET  {prefix}state     StateResponse                      revoked set, for rejoin
//	POST {prefix}members   MembersRequest -> MembersResponse  live membership

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

// MembersResponse echoes the peer's post-update membership.
type MembersResponse struct {
	Nodes []string `json:"nodes"`
}

// Handler serves the peer protocol over a shard. OnRecovery, when set, is
// invoked after the shard is invalidated so the embedding server can apply
// the event to its sessions (quarantine + epoch bump); it runs on the
// request goroutine, so replication is synchronous end to end. Tier, when
// set, additionally mounts the members endpoint so the router can push
// live membership changes into this instance's peer set.
type Handler struct {
	Cache      *Cache
	OnRecovery func(RecoveryRequest)
	Tier       *Tier
}

// maxPeerBody bounds peer request and reply bodies.
const maxPeerBody = 32 << 20

// Register mounts the protocol on mux under prefix (normally "/fleet/").
func (h *Handler) Register(mux *http.ServeMux, prefix string) {
	mux.HandleFunc(prefix+"recovery", h.handleRecovery)
	mux.HandleFunc(prefix+"state", h.handleState)
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

// idleConns caps a transport's idle connections, per host and in total.
// The two caps are equal because each owner talks to a handful of hosts:
// the router to its backends, a tier to its peers. A router analyze keeps
// one request per hot loop in flight to a backend, so http.DefaultTransport's
// two idle connections per host would close most of them after use and
// redial them on the next analyze.
const idleConns = 100

// NewTransport returns a clone of http.DefaultTransport that keeps up to
// idleConns idle connections to one host and adds one to dials, when it
// is not nil, for every connection it dials, failed or not. Its owner
// closes its idle connections before the servers it talks to shut down.
func NewTransport(dials *atomic.Int64) *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = idleConns
	tr.MaxIdleConnsPerHost = idleConns
	dial := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if dials != nil {
			dials.Add(1)
		}
		return dial(ctx, network, addr)
	}
	return tr
}

// Client speaks the peer protocol to one remote instance.
type Client struct {
	base string
	hc   *http.Client
}

// DefaultPeerTimeout bounds each peer RPC. Peer traffic is a small state
// transfer (recovery, membership), never a large compute — a second of
// silence means the peer is gone.
const DefaultPeerTimeout = 2 * time.Second

// NewClient returns a client for the peer at base (e.g.
// "http://127.0.0.1:8091") that sends its requests through rt (nil:
// http.DefaultTransport). timeout <= 0 selects DefaultPeerTimeout.
func NewClient(base string, timeout time.Duration, rt http.RoundTripper) *Client {
	if timeout <= 0 {
		timeout = DefaultPeerTimeout
	}
	return &Client{base: base, hc: &http.Client{Timeout: timeout, Transport: rt}}
}

// Members pushes a membership update to the peer and returns its
// post-update membership.
func (c *Client) Members(req MembersRequest) (MembersResponse, error) {
	var resp MembersResponse
	err := c.roundTrip(http.MethodPost, "/fleet/members", req, &resp)
	return resp, err
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

func (c *Client) roundTrip(method, path string, reqBody, respBody any) error {
	var body io.Reader
	if reqBody != nil {
		b, err := json.Marshal(reqBody)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, body)
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
