package fanout

import (
	"runtime"
	"sync"
	"testing"
)

func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 8} {
			limit := max(1, min(workers, n))
			var mu sync.Mutex
			calls := make([]int, n)
			last := make(map[int]int) // worker -> last index it ran
			For(n, workers, func(w, i int) {
				mu.Lock()
				defer mu.Unlock()
				if w < 0 || w >= limit {
					t.Errorf("n=%d workers=%d: worker %d outside [0, %d)", n, workers, w, limit)
				}
				if prev, ok := last[w]; ok && i <= prev {
					t.Errorf("n=%d workers=%d: worker %d ran %d after %d", n, workers, w, i, prev)
				}
				last[w] = i
				calls[i]++
			})
			for i, c := range calls {
				if c != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
}

// callerGoroutine returns the calling goroutine's stack header
// ("goroutine N [running]:"), which names its goroutine.
func callerGoroutine() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	for i, b := range buf {
		if b == '[' {
			return string(buf[:i])
		}
	}
	return string(buf)
}

func TestForSingleWorkerRunsInlineInOrder(t *testing.T) {
	self := callerGoroutine()
	for _, workers := range []int{-1, 0, 1} {
		var order []int
		For(5, workers, func(w, i int) {
			if g := callerGoroutine(); g != self || w != 0 {
				t.Errorf("workers=%d: index %d ran on %q as worker %d, want %q as worker 0", workers, i, g, w, self)
			}
			order = append(order, i)
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("workers=%d: order %v, want 0..4", workers, order)
			}
		}
		if len(order) != 5 {
			t.Fatalf("workers=%d: %d calls, want 5", workers, len(order))
		}
	}
}
