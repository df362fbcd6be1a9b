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
// windows, join probes), join builds, sort and aggregation. Set to 1 to
// force serial execution process-wide; individual executions override it
// with Ctx.SetParallelism (the repro.WithParallelism query option).
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

// parallelFor processes [0,n) in MorselSize morsels (one morsel of n rows
// with workers <= 1) spread over forEach's workers. fn(worker, lo, hi)
// must confine its writes to state owned by its worker index or to
// disjoint row positions — that is what keeps parallel execution
// deterministic — and should Tick inside long loops.
func (c *Ctx) parallelFor(n, workers int, fn func(worker, lo, hi int) error) error {
	if n == 0 {
		return nil
	}
	size := MorselSize
	if workers <= 1 {
		size = n
	}
	return c.forEach((n+size-1)/size, workers, func(w, m int) error {
		lo := m * size
		return fn(w, lo, min(lo+size, n))
	})
}

// forEach runs fn(worker, i) for every i in [0,n), the items claimed off
// a shared counter by up to `workers` goroutines — or, with one worker, in
// order on the calling goroutine. It is the one fan-out of the breakers:
// morsels, sort runs, hash partitions. Each item is preceded by a
// cancellation poll and the WorkerPanic injection point; a panic in a
// worker (a bug, or the injection) becomes this query's error instead of
// crashing the process, and the first error stops further claims. fn must
// write only state owned by its worker or its item.
func (c *Ctx) forEach(n, workers int, fn func(worker, i int) error) error {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := c.Canceled(); err != nil {
				return err
			}
			c.res.MaybePanic()
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					errs[w] = govern.Internalize(rec)
					next.Store(int64(n))
				}
			}()
			for {
				if err := c.Canceled(); err != nil {
					errs[w] = err
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				c.res.MaybePanic()
				if err := fn(w, i); err != nil {
					errs[w] = err
					next.Store(int64(n))
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
