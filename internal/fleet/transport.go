package fleet

import (
	"context"
	"net"
	"net/http"
	"sync/atomic"
)

// idleConns caps a transport's idle connections, per host and in total.
// The two caps are equal because each owner talks to a handful of hosts:
// the router to its backends, a load generator or the oracle to one
// router. A router analyze keeps one request per hot loop in flight to a
// backend, so http.DefaultTransport's two idle connections per host
// would close most of them after use and redial them on the next
// analyze.
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
