package fleet

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// newClosableTier builds a tier with an unreachable peer, so it owns a
// peer transport whose pooled connections Close drops.
func newClosableTier() *Tier {
	return NewTier(TierConfig{
		Self:    "a",
		Peers:   map[string]string{"b": "http://127.0.0.1:1"},
		Timeout: 10 * time.Millisecond,
	})
}

// TestTierCloseIdempotent: a second Close must be a no-op.
func TestTierCloseIdempotent(t *testing.T) {
	tier := newClosableTier()
	tier.Close()
	tier.Close()
}

// TestTierCloseConcurrent: many goroutines racing into Close must not
// panic.
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
// mid-flight (run under -race in the fleet gate): Get/Put must stay safe
// against a concurrent teardown, and a closed tier keeps serving its
// shard — it is quiescent, not broken.
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
