package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// newClosableTier builds a tier with an auto-flush goroutine and an
// unreachable peer — the configuration where Close actually has work to
// do (stop the flusher, drop pooled connections).
func newClosableTier() *Tier {
	return NewTier(TierConfig{
		Self:      "a",
		Peers:     map[string]string{"b": "http://127.0.0.1:1"},
		AutoFlush: time.Millisecond,
		Timeout:   10 * time.Millisecond,
	})
}

// TestTierCloseIdempotent: sequential double Close must be a no-op, not
// a double channel close.
func TestTierCloseIdempotent(t *testing.T) {
	tier := newClosableTier()
	tier.Close()
	tier.Close()
}

// TestTierCloseConcurrent is the regression test for the check-then-act
// race the old Close had (select on t.stop, then close(t.stop)): many
// goroutines racing into Close must not panic, and every call must
// return only after teardown completed.
func TestTierCloseConcurrent(t *testing.T) {
	tier := newClosableTier()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tier.Close()
		}()
	}
	wg.Wait()
}

// TestTierCloseDuringGet closes the tier while readers and writers are
// mid-flight (run under -race in the fleet gate): Get/Put/Flush must
// stay safe against a concurrent teardown, and entries put before the
// close must still be served after it — a closed tier is quiescent, not
// broken.
func TestTierCloseDuringGet(t *testing.T) {
	tier := newClosableTier()
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
				key := fmt.Sprintf("d|s|f|k%d", i%64)
				tier.Put(key, nil, []byte("v"))
				tier.Get(key, nil)
				i += 4
			}
		}(w)
	}
	time.Sleep(2 * time.Millisecond)
	var cg sync.WaitGroup
	for i := 0; i < 4; i++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			tier.Close()
		}()
	}
	cg.Wait()
	close(stop)
	wg.Wait()

	tier.Put("d|s|f|after", nil, []byte("post-close"))
	if v, ok := tier.Get("d|s|f|after", nil); !ok || string(v) != "post-close" {
		t.Fatal("closed tier lost its local shard")
	}
}

// TestTierFlushWaitsForAutoFlush: Flush is a barrier even while the
// auto-flusher runs. The peer's publish endpoint blocks, so the
// flusher's batch is stuck in flight; an explicit Flush issued then must
// not return until that batch has been delivered.
func TestTierFlushWaitsForAutoFlush(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && r.URL.Path == "/fleet/cache" {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
		}
		w.Write([]byte(`{"inserted":1}`))
	}))
	defer ts.Close()

	tier := NewTier(TierConfig{
		Self:      "a",
		Peers:     map[string]string{"b": ts.URL},
		AutoFlush: time.Millisecond,
		Timeout:   10 * time.Second,
	})
	defer tier.Close()
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("d|s|f|k%d", i); tier.Owner(k) == "b" {
			key = k
		}
	}
	tier.Put(key, nil, []byte("v"))
	<-entered // the flusher has taken the batch and is blocked sending it

	flushed := make(chan struct{})
	go func() {
		tier.Flush()
		close(flushed)
	}()
	select {
	case <-flushed:
		close(release)
		t.Fatal("Flush returned while the auto-flushed batch was still in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	<-flushed
	if st := tier.Stats(); st.Published != 1 || st.Batches != 1 {
		t.Fatalf("after Flush: published=%d batches=%d, want 1 and 1", st.Published, st.Batches)
	}
}
