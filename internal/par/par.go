// Package par is the process-wide compute budget every CPU fan-out in
// goopc draws from: the tile pool, the SOCS kernel fan-out, the FFT
// row/column passes and the process-window focus fan-out.
//
// A caller always gets to work; the budget only rations the *extra*
// goroutines, GOMAXPROCS-1 of them for the whole process. Grants are
// try-acquire and never block, so an outer level that already holds
// the cores (a tile pass with one worker per core) makes
// every nested site run inline instead of starting P goroutines under
// each of P workers, while a lone caller — or the tail of a tile pass,
// whose finished workers hand their slots back one by one — still
// fans out. Every site produces results that do not depend on how many
// goroutines ran it, so the grant never shows in the output.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// held counts the extra goroutines currently granted.
var held atomic.Int64

// Acquire reserves up to want extra goroutines without blocking and
// returns how many it got (0 when the budget is spent or want <= 0).
// The grant goes back through Run, or Release if it is not run.
func Acquire(want int) int {
	for want > 0 {
		cur := held.Load()
		free := int64(runtime.GOMAXPROCS(0)) - 1 - cur
		if free <= 0 {
			return 0
		}
		if int64(want) > free {
			want = int(free)
		}
		if held.CompareAndSwap(cur, cur+int64(want)) {
			return want
		}
	}
	return 0
}

// Release hands back n granted goroutines.
func Release(n int) { held.Add(int64(-n)) }

// Run calls fn(worker, i) once for every i in [0, n), handing indices
// out in ascending order to extra+1 workers, extra being a grant from
// Acquire. fn must be safe to run concurrently for distinct i. Run
// returns when every call has returned; a worker beyond the first gives
// its slot back as soon as no index is left for it, before slower ones
// finish.
//
// With no grant the calls run on the caller. With one, every worker —
// the caller's own share included — is a fresh goroutine and the caller
// parks until they are done: a parked caller hands its processor to the
// first worker at once, whereas a caller that kept computing would
// leave its one helper sitting in its run queue until another
// processor got round to stealing it (measured: a two-way 256x256
// transform takes 415 us this way, 565 us the other).
func Run(extra, n int, fn func(worker, i int)) {
	if extra == 0 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(extra + 1)
	for w := 0; w <= extra; w++ {
		go func(w int) {
			defer wg.Done()
			if w > 0 {
				defer Release(1)
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// Each is Run with as many extra goroutines as the budget grants, at
// most n-1. A caller that finds the budget spent works through the
// indices itself and asks again before each one, so a pass that started
// while another held every core picks up the slots that come free and
// hands the indices still left to the workers they pay for.
func Each(n int, fn func(worker, i int)) {
	for i := 0; i < n; i++ {
		if extra := Acquire(n - 1 - i); extra > 0 {
			Run(extra, n-i, func(worker, j int) { fn(worker, i+j) })
			return
		}
		fn(0, i)
	}
}
