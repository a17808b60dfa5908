package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// idleConns caps a transport's idle connections to one host. Each owner
// talks to a handful of hosts: the router to its backends, a load
// generator or the oracle to one router. A router analyze keeps one
// request per hot loop in flight to a backend, so http.DefaultTransport's
// two idle connections per host would close most of them after use and
// redial them on the next analyze.
const idleConns = 100

// Transport is the HTTP/1.1 round tripper of every fleet-internal client:
// the router's hops to its backends, and the load generator's and the
// oracle's requests to a router. It does each round trip on the calling
// goroutine: it takes an idle connection to the host from its pool, or
// dials one, writes the request with (*http.Request).Write through a
// buffered writer, and reads the reply with http.ReadResponse. The reply
// body hands the connection back to the pool when it reads to EOF.
// net/http's Transport instead hands each write to a writer goroutine and
// each reply back from a reader goroutine, and on a loopback hop those
// handoffs cost more than the router's own work.
//
// The standard library writes every request and parses every reply; a
// Transport owns only the connections' lifecycle:
//   - It speaks plain HTTP/1.1 (no fleet node serves TLS) and reads no
//     proxy setting, so a fleet hop never goes through HTTP_PROXY.
//   - Before it reuses an idle connection it peeks at it without
//     blocking, and drops it if its server closed it (a restart,
//     Shutdown, an idle timeout) or sent bytes nobody asked for.
//   - It pools no connection whose request or reply says
//     "Connection: close", and none whose body was closed before EOF.
//   - It sends a request again only where net/http would: on a reused
//     connection, when nothing of it was written, or when the server
//     closed the connection before the first byte of the reply to an
//     idempotent request. A create, delete, observe or execute is never
//     sent twice.
//   - Deadlines and cancellation come from the request's context: its
//     deadline becomes the connection's, and context.AfterFunc expires
//     the connection when the context is canceled. A client on a
//     Transport puts its bound there, not in http.Client.Timeout, which
//     starts a timer goroutine per request for a round tripper net/http
//     does not know.
//
// The request is written whole before the reply is read, so a server must
// not answer at length before it reads the request; fleet handlers read
// the whole body first. A reply body is not safe for concurrent Read and
// Close.
type Transport struct {
	dials  *atomic.Int64
	dialer net.Dialer

	mu   sync.Mutex
	idle map[string][]*conn // by host:port, most recently used last
}

// NewTransport returns a Transport that adds one to dials, when it is not
// nil, for every connection it dials, failed or not. Its owner closes its
// idle connections when it is done with it.
func NewTransport(dials *atomic.Int64) *Transport {
	return &Transport{
		dials:  dials,
		dialer: net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second},
		idle:   map[string][]*conn{},
	}
}

// conn is one connection to a host. Its owner is the pool while it is
// idle, and the round trip that took it until its reply body ends.
type conn struct {
	nc   net.Conn
	raw  syscall.RawConn
	addr string
	br   *bufio.Reader
	bw   *bufio.Writer // writes through conn.Write, which counts

	// nwrite counts the bytes of the current request that reached the
	// connection, and werr is the connection's write error, if any.
	nwrite int
	werr   error
	// deadline records that the current round trip set one.
	deadline bool

	// peekFn and expireFn are c.peek and c.expire, bound once so a
	// round trip does not allocate them; peek leaves its error in
	// peekErr.
	peekFn   func(uintptr) bool
	expireFn func()
	peekBuf  [1]byte
	peekErr  error
}

func (c *conn) Write(p []byte) (int, error) {
	n, err := c.nc.Write(p)
	c.nwrite += n
	if err != nil {
		c.werr = err
	}
	return n, err
}

// aLongTimeAgo is a deadline that has passed: setting it wakes any read
// or write blocked on the connection.
var aLongTimeAgo = time.Unix(1, 0)

// expire wakes c's blocked reads and writes. It fails only on a closed
// connection, which has none.
func (c *conn) expire() { _ = c.nc.SetDeadline(aLongTimeAgo) }

// peek looks at the next byte on fd without taking it and without
// waiting for one. Only EAGAIN says there is none: a byte, EOF (a closed
// connection) and any other error all end the connection's reuse.
func (c *conn) peek(fd uintptr) bool {
	_, _, c.peekErr = syscall.Recvfrom(int(fd), c.peekBuf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	return true
}

// alive reports whether idle connection c can carry another request: its
// server has neither closed it nor sent anything since its last reply.
func (c *conn) alive() bool {
	if c.br.Buffered() > 0 {
		return false
	}
	if err := c.raw.Read(c.peekFn); err != nil {
		return false
	}
	return c.peekErr == syscall.EAGAIN
}

// RoundTrip sends req and reads its reply's status and header. The reply
// body reads the rest from the connection.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	addr, err := hostPort(req)
	if err != nil {
		closeBody(req)
		return nil, err
	}
	ctx := req.Context()
	for {
		c, reused, err := t.conn(ctx, addr)
		if err != nil {
			closeBody(req)
			return nil, err
		}
		resp, retry, err := t.roundTrip(ctx, c, req)
		if err == nil {
			return resp, nil
		}
		if !reused || !retry || expired(ctx) {
			return nil, err
		}
		if req, err = rewind(req); err != nil {
			return nil, err
		}
	}
}

// hostPort returns the address req goes to, or an error if req is not a
// plain HTTP request.
func hostPort(req *http.Request) (string, error) {
	u := req.URL
	switch {
	case u == nil:
		return "", errors.New("fleet: request has no URL")
	case u.Scheme != "http":
		return "", fmt.Errorf("fleet: unsupported protocol scheme %q: fleet hops speak plain HTTP/1.1", u.Scheme)
	case u.Host == "":
		return "", fmt.Errorf("fleet: no host in request URL %q", u)
	case u.Port() == "":
		return net.JoinHostPort(u.Hostname(), "80"), nil
	}
	return u.Host, nil
}

// conn returns a live idle connection to addr, reused, or dials one.
func (t *Transport) conn(ctx context.Context, addr string) (c *conn, reused bool, err error) {
	for {
		t.mu.Lock()
		idle := t.idle[addr]
		if len(idle) == 0 {
			t.mu.Unlock()
			break
		}
		c = idle[len(idle)-1]
		idle[len(idle)-1] = nil
		t.idle[addr] = idle[:len(idle)-1]
		t.mu.Unlock()
		if c.alive() {
			return c, true, nil
		}
		c.nc.Close()
	}
	if t.dials != nil {
		t.dials.Add(1)
	}
	nc, err := t.dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, false, hopErr(ctx, err)
	}
	raw, err := nc.(*net.TCPConn).SyscallConn()
	if err != nil {
		nc.Close()
		return nil, false, err
	}
	c = &conn{nc: nc, raw: raw, addr: addr, br: bufio.NewReader(nc)}
	c.bw = bufio.NewWriter(c)
	c.peekFn, c.expireFn = c.peek, c.expire
	return c, false, nil
}

// roundTrip writes req on c and reads its reply's head. On failure it
// reports whether net/http would send req again, were c reused.
func (t *Transport) roundTrip(ctx context.Context, c *conn, req *http.Request) (*http.Response, bool, error) {
	if d, ok := ctx.Deadline(); ok {
		if err := c.nc.SetDeadline(d); err != nil {
			t.done(c, nil, false)
			closeBody(req)
			return nil, false, err
		}
		c.deadline = true
	}
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, c.expireFn)
	}
	c.nwrite, c.werr = 0, nil
	err := req.Write(c.bw)
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		if c.werr != nil {
			// The server may have answered before it stopped reading,
			// a refusal say: read what it sent, as net/http does.
			if resp, rerr := http.ReadResponse(c.br, req); rerr == nil {
				return t.reply(ctx, c, stop, resp, false), false, nil
			}
		}
		t.done(c, stop, false)
		return nil, c.werr != nil && c.nwrite == 0 && rewindable(req), hopErr(ctx, err)
	}
	if _, err := c.br.Peek(1); err != nil {
		// The server closed the connection, or broke it, before the
		// first byte of a reply.
		t.done(c, stop, false)
		return nil, replayable(req), hopErr(ctx, err)
	}
	resp, err := http.ReadResponse(c.br, req)
	if err != nil {
		t.done(c, stop, false)
		return nil, false, hopErr(ctx, err)
	}
	return t.reply(ctx, c, stop, resp, !resp.Close && !req.Close), false, nil
}

// reply hands resp, read from c, to the caller: a reply with no body
// ends the round trip at once, and any other gets a body that ends it.
func (t *Transport) reply(ctx context.Context, c *conn, stop func() bool, resp *http.Response, keep bool) *http.Response {
	if resp.Body == http.NoBody {
		t.done(c, stop, keep)
		return resp
	}
	resp.Body = &body{rc: resp.Body, t: t, c: c, ctx: ctx, stop: stop, keep: keep}
	return resp
}

// done ends c's round trip: it pools c when keep holds and the request's
// context did not expire c, and closes it otherwise.
func (t *Transport) done(c *conn, stop func() bool, keep bool) {
	if stop != nil && !stop() {
		keep = false
	}
	if keep && c.deadline {
		keep = c.nc.SetDeadline(time.Time{}) == nil
		c.deadline = false
	}
	if !keep || !t.put(c) {
		c.nc.Close()
	}
}

// put pools idle connection c unless its host has idleConns already.
func (t *Transport) put(c *conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.idle[c.addr]) >= idleConns {
		return false
	}
	t.idle[c.addr] = append(t.idle[c.addr], c)
	return true
}

// CloseIdleConnections closes every pooled connection. Connections in use
// are pooled again when their round trips end.
func (t *Transport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = map[string][]*conn{}
	t.mu.Unlock()
	for _, conns := range idle {
		for _, c := range conns {
			c.nc.Close()
		}
	}
}

// body is a reply body. It ends its round trip at EOF, at the first read
// error, or at Close, whichever comes first; only EOF can pool the
// connection.
type body struct {
	rc   io.ReadCloser
	t    *Transport
	c    *conn // nil once the round trip has ended
	ctx  context.Context
	stop func() bool
	keep bool
	end  error // what a read returns once the round trip has ended
}

var errBodyClosed = errors.New("fleet: read on closed response body")

func (b *body) Read(p []byte) (int, error) {
	if b.c == nil {
		return 0, b.end
	}
	n, err := b.rc.Read(p)
	if err != nil {
		keep := b.keep && err == io.EOF
		if err != io.EOF {
			err = hopErr(b.ctx, err)
		}
		b.finish(keep, err)
	}
	return n, err
}

func (b *body) Close() error {
	if b.c != nil {
		b.finish(false, errBodyClosed)
	}
	return nil
}

func (b *body) finish(keep bool, end error) {
	c := b.c
	b.c, b.end = nil, end
	b.t.done(c, b.stop, keep)
}

// expired reports whether ctx is done or past its deadline. The deadline
// expires the connection and the context's own timer at the same
// instant, and either may be seen first.
func expired(ctx context.Context) bool {
	if ctx.Err() != nil {
		return true
	}
	d, ok := ctx.Deadline()
	return ok && !time.Now().Before(d)
}

// hopErr reports err, met under ctx, as the context's error when ctx has
// expired: its deadline or its cancellation is what broke the connection.
func hopErr(ctx context.Context, err error) error {
	if !expired(ctx) {
		return err
	}
	cause := ctx.Err()
	if cause == nil {
		cause = context.DeadlineExceeded
	}
	return fmt.Errorf("fleet: %w (%v)", cause, err)
}

// rewindable reports whether req's body, if it has one, can be sent again.
func rewindable(req *http.Request) bool {
	return req.Body == nil || req.Body == http.NoBody || req.GetBody != nil
}

// replayable reports whether req may be sent again after its server may
// have seen it: an idempotent method whose body can be sent again.
func replayable(req *http.Request) bool {
	switch req.Method {
	case "", http.MethodGet, http.MethodHead, http.MethodOptions, http.MethodTrace:
		return rewindable(req)
	}
	return false
}

// rewind returns req ready to be sent again, with a fresh body from
// GetBody when it has one.
func rewind(req *http.Request) (*http.Request, error) {
	if req.Body == nil || req.Body == http.NoBody {
		return req, nil
	}
	rc, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	again := *req
	again.Body = rc
	return &again, nil
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}
