// Morsel-driven intra-query parallelism (in the spirit of Leis et al.,
// SIGMOD 2014): operator hot loops split their input into fixed-size
// morsels that a pool of workers claims from a shared counter, so load
// balances across cores without any static partitioning decision. Every
// parallel operator preserves its serial output exactly — workers write
// to disjoint, position-addressed state (per-morsel output slices
// concatenated in morsel order, or per-index slots), hash partitions are
// folded in global input order, and parallel sorts merge stably — so a
// query's result is bit-identical at Parallelism=1 and Parallelism=N.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/govern"
	"repro/internal/schema"
)

// Parallelism is the default worker-pool width for intra-query
// parallelism: the morsel pipelines (scans, filters, projections,
// windows, join probes), join builds, sort, aggregation, and concurrent
// execution of independent plan children. Set to 1 to force serial
// execution process-wide; individual executions override it with
// Ctx.SetParallelism (the repro.WithParallelism query option).
var Parallelism = runtime.NumCPU()

const (
	// MorselSize is the number of rows in one unit of parallel work. A
	// power of two aligned with cancelCheckInterval: big enough that
	// claiming a morsel (one atomic add) never shows in profiles, small
	// enough that skewed morsels don't leave workers idle.
	MorselSize = 4096

	// ParallelThreshold is the smallest input an operator fans out for;
	// below it goroutine startup would cost more than it saves.
	ParallelThreshold = 2 * MorselSize
)

// workersFor returns how many goroutines to use over n rows: 1 for small
// inputs, otherwise the context's parallelism capped by the morsel count.
func (c *Ctx) workersFor(n int) int {
	w := c.par
	if w <= 1 || n < ParallelThreshold {
		return 1
	}
	if m := (n + MorselSize - 1) / MorselSize; w > m {
		w = m
	}
	return w
}

// morselCount returns how many morsels parallelFor will dispatch for n
// rows on the given worker count; callers size per-morsel output slots
// with it. Serial execution runs as a single morsel.
func morselCount(n, workers int) int {
	if workers <= 1 || n == 0 {
		return 1
	}
	return (n + MorselSize - 1) / MorselSize
}

// parallelFor processes [0,n) in morsels claimed off a shared atomic
// counter by `workers` goroutines. fn(worker, morsel, lo, hi) must
// confine its writes to state owned by its worker index or morsel index
// (or to disjoint row positions) — that is what keeps parallel execution
// deterministic. Workers poll the context between morsels, and fn should
// Tick inside long loops; the first error (or the context's) aborts the
// whole loop. With workers <= 1 it degenerates to fn(0, 0, 0, n) on the
// calling goroutine.
func (c *Ctx) parallelFor(n, workers int, fn func(worker, morsel, lo, hi int) error) error {
	if n == 0 {
		return nil
	}
	if workers <= 1 {
		c.res.MaybePanic()
		return fn(0, 0, 0, n)
	}
	morsels := morselCount(n, workers)
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A panic in one morsel (a bug, or the WorkerPanic injection)
			// becomes this query's error instead of crashing the process;
			// sibling workers drain normally and the pool joins cleanly.
			defer func() {
				if rec := recover(); rec != nil {
					errs[w] = govern.Internalize(rec)
				}
			}()
			for {
				if err := c.Canceled(); err != nil {
					errs[w] = err
					return
				}
				m := int(next.Add(1)) - 1
				if m >= morsels {
					return
				}
				c.res.MaybePanic()
				lo := m * MorselSize
				hi := lo + MorselSize
				if hi > n {
					hi = n
				}
				if err := fn(w, m, lo, hi); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstError(errs)
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// concatMorsels flattens per-morsel output slices in morsel order — how
// Run drains a pipeline's batches into one result.
func concatMorsels(outs [][]schema.Row) []schema.Row {
	if len(outs) == 1 {
		return outs[0]
	}
	size := 0
	for _, o := range outs {
		size += len(o)
	}
	flat := make([]schema.Row, 0, size)
	for _, o := range outs {
		flat = append(flat, o...)
	}
	return flat
}

// runPair executes two independent plan children, concurrently when the
// context allows more than one worker — the two inputs of a set operation
// or nested-loop join share no state, so their subtrees (each possibly fanning out
// its own morsel workers) overlap freely; the scheduler multiplexes the
// combined goroutines onto GOMAXPROCS threads. Run's inflight tracking
// makes a subtree shared between both sides execute exactly once.
func runPair(ctx *Ctx, a, b Node) (*Result, *Result, error) {
	if ctx.par <= 1 {
		ra, err := Run(ctx, a)
		if err != nil {
			return nil, nil, err
		}
		rb, err := Run(ctx, b)
		if err != nil {
			return nil, nil, err
		}
		return ra, rb, nil
	}
	var (
		rb   *Result
		errB error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		defer func() {
			if rec := recover(); rec != nil {
				rb, errB = nil, govern.Internalize(rec)
			}
		}()
		rb, errB = Run(ctx, b)
	}()
	ra, errA := Run(ctx, a)
	<-done
	if errA != nil {
		return nil, nil, errA
	}
	if errB != nil {
		return nil, nil, errB
	}
	return ra, rb, nil
}
