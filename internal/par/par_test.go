package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// setProcs pins GOMAXPROCS for a test and checks the budget is idle
// before and after: every test must hand back what it took.
func setProcs(t *testing.T, p int) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	if h := held.Load(); h != 0 {
		t.Fatalf("budget not idle at test start: %d held", h)
	}
	t.Cleanup(func() {
		runtime.GOMAXPROCS(old)
		if h := held.Load(); h != 0 {
			t.Errorf("budget leaked: %d held after test", h)
		}
	})
}

func TestAcquireIsBoundedByGOMAXPROCS(t *testing.T) {
	setProcs(t, 4)
	if got := Acquire(0); got != 0 {
		t.Errorf("Acquire(0) = %d", got)
	}
	if got := Acquire(-3); got != 0 {
		t.Errorf("Acquire(-3) = %d", got)
	}
	a := Acquire(2)
	b := Acquire(5) // only one of the three extras is left
	c := Acquire(1)
	if a != 2 || b != 1 || c != 0 {
		t.Errorf("grants %d, %d, %d; want 2, 1, 0", a, b, c)
	}
	Release(a + b)
	if got := Acquire(8); got != 3 {
		t.Errorf("after release Acquire(8) = %d, want 3", got)
	}
	Release(3)

	runtime.GOMAXPROCS(1)
	if got := Acquire(4); got != 0 {
		t.Errorf("single-core Acquire(4) = %d, want 0", got)
	}
}

// TestEachCoversEveryIndexOnce at every grant the host could give,
// including none.
func TestEachCoversEveryIndexOnce(t *testing.T) {
	setProcs(t, 4)
	for taken := 0; taken <= 3; taken++ {
		pinned := Acquire(taken)
		if pinned != taken {
			t.Fatalf("could not pin %d slots, got %d", taken, pinned)
		}
		const n = 100
		var hits [n]atomic.Int32
		var maxWorker atomic.Int32
		Each(n, func(worker, i int) {
			hits[i].Add(1)
			for {
				m := maxWorker.Load()
				if int32(worker) <= m || maxWorker.CompareAndSwap(m, int32(worker)) {
					break
				}
			}
		})
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("taken=%d: index %d ran %d times", taken, i, h)
			}
		}
		if w := int(maxWorker.Load()); w > 3-taken {
			t.Errorf("taken=%d: saw worker %d, only %d extras were free", taken, w, 3-taken)
		}
		if h := held.Load(); int(h) != taken {
			t.Errorf("taken=%d: %d held after Each returned", taken, h)
		}
		Release(pinned)
	}
	// Degenerate sizes.
	Each(0, func(_, _ int) { t.Error("fn called for n=0") })
	ran := 0
	Each(1, func(worker, i int) {
		if worker != 0 || i != 0 {
			t.Errorf("n=1 ran (%d, %d)", worker, i)
		}
		ran++
	})
	if ran != 1 {
		t.Errorf("n=1 ran %d times", ran)
	}
}

// TestNestedEachRunsInline: an outer level that holds every core leaves
// nothing for the levels under it, which then run on their caller.
func TestNestedEachRunsInline(t *testing.T) {
	setProcs(t, 3)
	var inner atomic.Int32
	var nestedExtra atomic.Int32
	// Three outer items, each on its own goroutine (none returns before
	// all have arrived), all staying until every nested fan-out is done
	// — so the budget is spent for as long as the nested level runs.
	var arrive, leave sync.WaitGroup
	arrive.Add(3)
	leave.Add(3)
	Each(3, func(_, _ int) {
		arrive.Done()
		arrive.Wait()
		Each(8, func(worker, _ int) {
			inner.Add(1)
			if worker != 0 {
				nestedExtra.Add(1)
			}
		})
		leave.Done()
		leave.Wait()
	})
	if inner.Load() != 24 {
		t.Errorf("nested calls ran %d items, want 24", inner.Load())
	}
	if n := nestedExtra.Load(); n != 0 {
		t.Errorf("%d nested items ran on extra goroutines while the outer level held every core", n)
	}
}

// TestTailSlotsReturnEarly: an extra worker that runs out of work hands
// its slot back while a slower sibling is still busy, so the slow
// item's own nested fan-out can use it.
func TestTailSlotsReturnEarly(t *testing.T) {
	setProcs(t, 2)
	// Both items wait for each other, so each has a worker of its own.
	var both sync.WaitGroup
	both.Add(2)
	got := -1
	Each(2, func(worker, _ int) {
		both.Done()
		both.Wait()
		if worker != 0 {
			return // the extra worker: nothing is left, it runs dry
		}
		// Worker 0 is still inside its item; the extra worker's slot
		// must come back regardless.
		for held.Load() != 0 {
			runtime.Gosched()
		}
		got = Acquire(1)
		Release(got)
	})
	if got != 1 {
		t.Errorf("tail Acquire(1) = %d, want the finished worker's slot", got)
	}
}

// TestEachPicksUpFreedSlots: a pass that started with the budget spent
// runs on its caller, and fans the remaining indices out once the
// holder lets go.
func TestEachPicksUpFreedSlots(t *testing.T) {
	setProcs(t, 2)
	pinned := Acquire(1) // another pass holds the one extra slot
	helped := make(chan struct{})
	var once sync.Once
	var hits [10]atomic.Int32
	Each(len(hits), func(worker, i int) {
		hits[i].Add(1)
		switch {
		case worker != 0:
			once.Do(func() { close(helped) })
		case i < 3:
			if h := held.Load(); h != 1 {
				t.Errorf("item %d: %d held, want only the pinned slot", i, h)
			}
			if i == 2 {
				Release(pinned) // the other pass is done
			}
		case i == 3:
			// The caller's share of the fanned-out rest: stay in this
			// item until the new worker has shown up.
			select {
			case <-helped:
			case <-time.After(10 * time.Second):
				t.Error("no extra worker joined after the slot came free")
			}
		}
	})
	for i := range hits {
		if h := hits[i].Load(); h != 1 {
			t.Errorf("index %d ran %d times", i, h)
		}
	}
}
