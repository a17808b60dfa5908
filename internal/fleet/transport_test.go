package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// idleCount is the number of connections tr holds in its pool.
func idleCount(tr *Transport) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, conns := range tr.idle {
		n += len(conns)
	}
	return n
}

// send makes one round trip through tr under ctx and reads the reply
// whole.
func send(ctx context.Context, tr *Transport, method, url, body string) (int, string, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, "", err
	}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), err
}

// mustSend is send under a background context, failing t on a transport
// error or a status other than 200.
func mustSend(t *testing.T, tr *Transport, method, url, body string) string {
	t.Helper()
	st, got, err := send(context.Background(), tr, method, url, body)
	if err != nil || st != http.StatusOK {
		t.Fatalf("%s %s: status %d, error %v", method, url, st, err)
	}
	return got
}

// echo answers "ok", or the request body when there is one.
func echo(w http.ResponseWriter, r *http.Request) {
	b, _ := io.ReadAll(r.Body)
	if len(b) == 0 {
		b = []byte("ok")
	}
	w.Write(b)
}

// rawReplies answers requests with bytes written straight to their
// connections, which it leaves open until closeAll.
type rawReplies struct {
	mu    sync.Mutex
	conns []net.Conn
}

// reply takes w's connection from the server and writes raw on it.
func (rr *rawReplies) reply(t *testing.T, w http.ResponseWriter, raw string) {
	nc, brw, err := w.(http.Hijacker).Hijack()
	if err != nil {
		t.Error(err)
		return
	}
	rr.mu.Lock()
	rr.conns = append(rr.conns, nc)
	rr.mu.Unlock()
	brw.WriteString(raw)
	brw.Flush()
}

func (rr *rawReplies) closeAll() {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	for _, nc := range rr.conns {
		nc.Close()
	}
}

// TestTransportDropsDeadConnectionsAtThePeek: a pooled connection is
// peeked at before reuse and dropped when its server closed it or sent
// bytes nobody asked for. After the server closes every connection, the
// next POST and then a GET succeed over one new dial: a POST sent on the
// closed connection would fail, since it is never sent twice.
func TestTransportDropsDeadConnectionsAtThePeek(t *testing.T) {
	t.Run("closed", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(echo))
		defer ts.Close()
		var dials atomic.Int64
		tr := NewTransport(&dials)
		defer tr.CloseIdleConnections()

		mustSend(t, tr, http.MethodGet, ts.URL, "")
		if idleCount(tr) != 1 {
			t.Fatalf("a reply read to EOF left %d connections pooled, want 1", idleCount(tr))
		}
		ts.CloseClientConnections()
		// The server's FIN reaches the client side asynchronously.
		tr.mu.Lock()
		c := tr.idle[ts.Listener.Addr().String()][0]
		tr.mu.Unlock()
		for start := time.Now(); c.alive(); time.Sleep(time.Millisecond) {
			if time.Since(start) > 5*time.Second {
				t.Fatal("the closed connection still peeks alive")
			}
		}
		if got := mustSend(t, tr, http.MethodPost, ts.URL, "create"); got != "create" {
			t.Fatalf("POST echoed %q", got)
		}
		mustSend(t, tr, http.MethodGet, ts.URL, "")
		if n := dials.Load(); n != 2 {
			t.Fatalf("dials = %d, want 2: one at the start, one after the close", n)
		}
	})

	t.Run("stray bytes", func(t *testing.T) {
		var raw rawReplies
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/stray" {
				echo(w, r)
				return
			}
			raw.reply(t, w, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokX")
		}))
		defer ts.Close()
		defer raw.closeAll()
		var dials atomic.Int64
		tr := NewTransport(&dials)
		defer tr.CloseIdleConnections()

		if got := mustSend(t, tr, http.MethodGet, ts.URL+"/stray", ""); got != "ok" {
			t.Fatalf("GET /stray read %q", got)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		st, got, err := send(ctx, tr, http.MethodPost, ts.URL+"/echo", "observe")
		if err != nil || st != http.StatusOK || got != "observe" {
			t.Fatalf("POST after a reply with a stray byte: status %d, %q, error %v", st, got, err)
		}
		if n := dials.Load(); n != 2 {
			t.Fatalf("dials = %d, want 2", n)
		}
	})
}

// TestTransportRetriesOnlyIdempotentHops: when the server reads a
// request on a reused connection and closes it without a reply, a POST
// reaches the handler once and the hop fails, while a GET is sent again,
// once, on a new connection.
func TestTransportRetriesOnlyIdempotentHops(t *testing.T) {
	var abort atomic.Bool
	var aborts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/abort" {
			io.ReadAll(r.Body)
			aborts.Add(1)
			if abort.CompareAndSwap(true, false) {
				panic(http.ErrAbortHandler)
			}
		}
		echo(w, r)
	}))
	defer ts.Close()
	var dials atomic.Int64
	tr := NewTransport(&dials)
	defer tr.CloseIdleConnections()

	for _, method := range []string{http.MethodPost, http.MethodGet} {
		aborts.Store(0)
		mustSend(t, tr, http.MethodGet, ts.URL, "")
		if idleCount(tr) != 1 {
			t.Fatalf("%s: no pooled connection to reuse", method)
		}
		before := dials.Load()
		abort.Store(true)
		body := ""
		if method == http.MethodPost {
			body = "observe"
		}
		st, _, err := send(context.Background(), tr, method, ts.URL+"/abort", body)
		switch method {
		case http.MethodPost:
			if err == nil {
				t.Fatalf("POST whose connection broke after the server read it answered %d, want a transport error", st)
			}
			if n := aborts.Load(); n != 1 {
				t.Fatalf("POST reached the handler %d times, want 1", n)
			}
		case http.MethodGet:
			if err != nil || st != http.StatusOK {
				t.Fatalf("GET whose connection broke after the server read it: status %d, error %v; want a retried 200", st, err)
			}
			if n, d := aborts.Load(), dials.Load()-before; n != 2 || d != 1 {
				t.Fatalf("GET reached the handler %d times over %d new dials, want 2 over 1", n, d)
			}
		}
	}
}

// deadlineOnly is a context with a deadline and no Done channel: nothing
// but the connection deadline the transport sets from it enforces it.
type deadlineOnly struct {
	context.Context
	deadline time.Time
}

func (c deadlineOnly) Deadline() (time.Time, bool) { return c.deadline, true }

// TestTransportDeadlineFromContext: a handler that stalls past the
// request context's deadline, or past its cancellation, fails the hop
// then with the context's error, and its connection is not pooled. Each
// context kind is tried: one with a timer and a Done channel, one whose
// deadline only the connection enforces, and one canceled with no
// deadline, which only context.AfterFunc sees.
func TestTransportDeadlineFromContext(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stall" {
			<-release
		}
		echo(w, r)
	}))
	defer ts.Close()
	defer close(release)
	const bound = 150 * time.Millisecond
	contexts := map[string]struct {
		mk   func() (context.Context, context.CancelFunc)
		want error
	}{
		"timer": {func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), bound)
		}, context.DeadlineExceeded},
		"deadline only": {func() (context.Context, context.CancelFunc) {
			return deadlineOnly{context.Background(), time.Now().Add(bound)}, func() {}
		}, context.DeadlineExceeded},
		"canceled": {func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(bound, cancel)
			return ctx, func() { timer.Stop(); cancel() }
		}, context.Canceled},
	}
	for name, kind := range contexts {
		t.Run(name, func(t *testing.T) {
			var dials atomic.Int64
			tr := NewTransport(&dials)
			defer tr.CloseIdleConnections()
			mustSend(t, tr, http.MethodGet, ts.URL, "")

			start := time.Now() // before the bound starts, so none ends early
			ctx, cancel := kind.mk()
			defer cancel()
			type result struct {
				err     error
				elapsed time.Duration
			}
			done := make(chan result, 1)
			go func() {
				_, _, err := send(ctx, tr, http.MethodGet, ts.URL+"/stall", "")
				done <- result{err, time.Since(start)}
			}()
			var r result
			select {
			case r = <-done:
			case <-time.After(10 * bound):
				t.Fatalf("the hop outlived its context's %v bound by more than %v", bound, 9*bound)
			}
			if !errors.Is(r.err, kind.want) {
				t.Fatalf("stalled hop failed with %v, want %v", r.err, kind.want)
			}
			if r.elapsed < bound {
				t.Fatalf("stalled hop failed after %v, before its context's %v bound", r.elapsed, bound)
			}
			if n := idleCount(tr); n != 0 {
				t.Fatalf("%d connections pooled after a hop that timed out, want 0", n)
			}
			mustSend(t, tr, http.MethodGet, ts.URL, "")
			if n := dials.Load(); n != 2 {
				t.Fatalf("dials = %d, want 2", n)
			}
		})
	}
}

// TestTransportPoolsNoClosingConnection: a connection is pooled only
// when its reply was read to EOF and neither its request nor its reply
// said "Connection: close". The request's case is answered by a server
// that keeps the connection open and does not echo the close, so only
// the request says it.
func TestTransportPoolsNoClosingConnection(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 1<<20)
	var raw rawReplies
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/close":
			w.Header().Set("Connection", "close")
			w.Write([]byte("bye"))
		case "/keep":
			raw.reply(t, w, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
		case "/big":
			w.Write(big)
		default:
			echo(w, r)
		}
	}))
	defer ts.Close()
	defer raw.closeAll()
	tr := NewTransport(nil)
	defer tr.CloseIdleConnections()

	mustSend(t, tr, http.MethodGet, ts.URL, "")
	if n := idleCount(tr); n != 1 {
		t.Fatalf("vacuous: a plain reply read to EOF left %d connections pooled, want 1", n)
	}
	tr.CloseIdleConnections()

	mustSend(t, tr, http.MethodGet, ts.URL+"/close", "")
	if n := idleCount(tr); n != 0 {
		t.Fatalf("a Connection: close reply left %d connections pooled", n)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/keep", nil)
	req.Close = true
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	io.ReadAll(resp.Body)
	resp.Body.Close()
	if n := idleCount(tr); n != 0 {
		t.Fatalf("a Connection: close request left %d connections pooled", n)
	}

	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/big", nil)
	resp, err = tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if n := idleCount(tr); n != 0 {
		t.Fatalf("a body closed before EOF left %d connections pooled", n)
	}
	if _, err := resp.Body.Read(make([]byte, 1)); err == nil {
		t.Fatal("a closed body read on")
	}
}

// transportFrames counts the goroutines running a method of this
// package's transport.
func transportFrames() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "internal/fleet.(*Transport)") ||
			strings.Contains(g, "internal/fleet.(*conn)") ||
			strings.Contains(g, "internal/fleet.(*body)") {
			n++
		}
	}
	return n
}

// TestTransportCloseIdleConnections: CloseIdleConnections closes every
// pooled connection, one that never carried a request included, so the
// server sees each closed before it shuts down, http.Server.Shutdown
// returns well inside the five-second grace it gives a connection that
// never carried a request, and no goroutine is left: neither the
// server's per-connection ones nor any running the transport's code.
func TestTransportCloseIdleConnections(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var open atomic.Int32
	const fanout = 4
	var arrived sync.WaitGroup
	arrived.Add(fanout)
	hs := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/together" {
				arrived.Done()
				arrived.Wait() // every request in flight at once, so each dials
			}
			echo(w, r)
		}),
		ConnState: func(_ net.Conn, s http.ConnState) {
			switch s {
			case http.StateNew:
				open.Add(1)
			case http.StateClosed, http.StateHijacked:
				open.Add(-1)
			}
		},
	}
	go hs.Serve(l)
	baseline := runtime.NumGoroutine()
	url := "http://" + l.Addr().String()

	var dials atomic.Int64
	tr := NewTransport(&dials)
	// A connection that never carries a request, as a dial whose request
	// was given up could leave: the server holds it as new. It joins the
	// pool after the requests, so none of them takes it.
	spare, _, err := tr.conn(context.Background(), l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range fanout {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if st, _, err := send(context.Background(), tr, http.MethodGet, url+"/together", ""); err != nil || st != http.StatusOK {
				t.Errorf("GET: status %d, error %v", st, err)
			}
		}()
	}
	wg.Wait()
	if !tr.put(spare) {
		t.Fatal("the pool refused a connection")
	}
	if n := idleCount(tr); n != fanout+1 || dials.Load() != fanout+1 {
		t.Fatalf("vacuous: %d connections pooled over %d dials, want %d", n, dials.Load(), fanout+1)
	}

	tr.CloseIdleConnections()
	for start := time.Now(); open.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 2*time.Second {
			t.Fatalf("the server still holds %d connections after CloseIdleConnections", open.Load())
		}
	}
	for start := time.Now(); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Since(start) > 2*time.Second {
			t.Fatalf("%d goroutines after CloseIdleConnections, %d before the first request", runtime.NumGoroutine(), baseline)
		}
	}
	if n := transportFrames(); n != 0 {
		t.Fatalf("%d goroutines run the transport's code after CloseIdleConnections", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Shutdown took %v after CloseIdleConnections", d)
	}
}

// TestTransportCountsRefusedDials: the dial counter counts every dial, a
// refused one included, and a scheme other than plain HTTP is refused
// by name before any dial.
func TestTransportCountsRefusedDials(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	var dials atomic.Int64
	tr := NewTransport(&dials)
	if _, _, err := send(context.Background(), tr, http.MethodGet, "http://"+addr, ""); err == nil {
		t.Fatal("a GET to a closed port succeeded")
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("dials = %d after one refused dial, want 1", n)
	}
	_, _, err = send(context.Background(), tr, http.MethodGet, "https://"+addr, "")
	if err == nil || !strings.Contains(err.Error(), `"https"`) {
		t.Fatalf("an https request failed with %v, want an error naming the scheme", err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("dials = %d after an https request, want 1: no dial", n)
	}
}

// TestTransportConcurrentHops: goroutines sharing one transport each get
// their own reply, and the pool grows only to the requests in flight at
// once: a connection handed back twice would carry two requests at once,
// and one never handed back would be dialed again.
func TestTransportConcurrentHops(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(echo))
	defer ts.Close()
	var dials atomic.Int64
	tr := NewTransport(&dials)
	defer tr.CloseIdleConnections()
	const workers, hops = 8, 40
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range hops {
				method, want := http.MethodGet, "ok"
				if i%2 == 1 {
					method, want = http.MethodPost, fmt.Sprintf("w%d-%d", w, i)
				}
				body := ""
				if method == http.MethodPost {
					body = want
				}
				st, got, err := send(context.Background(), tr, method, ts.URL, body)
				if err != nil || st != http.StatusOK || got != want {
					t.Errorf("%s %d/%d: status %d, %q, error %v; want %q", method, w, i, st, got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := dials.Load(); n > workers {
		t.Fatalf("%d dials for %d workers", n, workers)
	}
	if n := idleCount(tr); int64(n) != dials.Load() {
		t.Fatalf("%d connections pooled after %d dials, want every one", n, dials.Load())
	}
}
