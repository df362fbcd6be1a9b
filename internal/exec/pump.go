package exec

import (
	"sync"

	"repro/internal/govern"
)

// morselPump runs a pipeline's morsel function over nm work units and
// delivers the per-morsel outputs strictly in morsel order. With more
// than one worker, a pool claims morsels off a shared cursor bounded by
// a small look-ahead window (so an unread stream never materializes the
// whole input); with one worker the morsels run on the consuming
// goroutine. The consumer also runs the first morsel itself before the
// pool starts, so the first batch costs one morsel of work rather than
// however much of the window the pool gets through before the consumer
// is scheduled. Every morsel carries the same contract: a cancellation
// poll before it, the WorkerPanic injection, and panic containment (via
// govern.Internalize in a worker, the caller's recover on the consuming
// goroutine). An error stops the claims; the morsels before the lowest
// failing one are still delivered, then its error, which stays sticky —
// so the error is the serial run's at any parallelism.
type morselPump struct {
	ctx     *Ctx
	nm      int
	workers int
	// window bounds how far claims may run ahead of delivery.
	window int
	// fn runs morsel m on behalf of worker w (0 ≤ w < workers).
	fn func(w, m int) (morselOut, error)

	started    bool
	serialNext int

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	// err is the error of morsel failed, the lowest that failed so far.
	err     error
	failed  int
	claim   int
	deliver int
	pending map[int]morselOut
	wg      sync.WaitGroup
}

func newMorselPump(ctx *Ctx, nm, workers int, fn func(w, m int) (morselOut, error)) *morselPump {
	p := &morselPump{ctx: ctx, nm: nm, workers: workers, window: 2 * workers, fn: fn}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// next returns the next morsel's output in order — empty ones included,
// so the consumer accounts every morsel — and ok=false after the last.
func (p *morselPump) next() (morselOut, bool, error) {
	if p.workers <= 1 || p.serialNext == 0 {
		return p.nextSerial()
	}
	if !p.started {
		p.started = true
		p.claim, p.deliver = p.serialNext, p.serialNext
		p.pending = make(map[int]morselOut, p.window)
		for w := 0; w < p.workers; w++ {
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.worker(w)
			}()
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.err != nil && p.deliver >= p.failed {
			return morselOut{}, false, p.err
		}
		if p.deliver >= p.nm {
			return morselOut{}, false, nil
		}
		if out, ok := p.pending[p.deliver]; ok {
			delete(p.pending, p.deliver)
			p.deliver++
			// The window moved: wake workers parked on the claim bound.
			p.cond.Broadcast()
			return out, true, nil
		}
		p.cond.Wait()
	}
}

func (p *morselPump) nextSerial() (morselOut, bool, error) {
	if p.serialNext >= p.nm {
		return morselOut{}, false, nil
	}
	if err := p.ctx.Canceled(); err != nil {
		return morselOut{}, false, err
	}
	m := p.serialNext
	p.serialNext++
	// Panics (including the WorkerPanic injection) propagate to the
	// caller's recover: Run's, or the stream's around every batch.
	p.ctx.res.MaybePanic()
	out, err := p.fn(0, m)
	return out, err == nil, err
}

func (p *morselPump) worker(w int) {
	for {
		p.mu.Lock()
		for !p.closed && p.err == nil && p.claim < p.nm && p.claim >= p.deliver+p.window {
			p.cond.Wait()
		}
		if p.closed || p.err != nil || p.claim >= p.nm {
			p.mu.Unlock()
			return
		}
		m := p.claim
		p.claim++
		p.mu.Unlock()
		if err := p.ctx.Canceled(); err != nil {
			p.fail(m, err)
			return
		}
		out, err := p.runMorsel(w, m)
		if err != nil {
			p.fail(m, err)
			return
		}
		p.mu.Lock()
		p.pending[m] = out
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// runMorsel executes one morsel with the pool's panic containment.
func (p *morselPump) runMorsel(w, m int) (out morselOut, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			out, err = morselOut{}, govern.Internalize(rec)
		}
	}()
	p.ctx.res.MaybePanic()
	return p.fn(w, m)
}

// fail records morsel m's error unless a lower morsel already failed.
// Every morsel below m is claimed, so each of them is delivered or fails.
func (p *morselPump) fail(m int, err error) {
	p.mu.Lock()
	if p.err == nil || m < p.failed {
		p.err, p.failed = err, m
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// close stops the pump: parked workers wake and exit, in-flight morsels
// finish, and the pool joins before close returns — no goroutine
// outlives the pipeline.
func (p *morselPump) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}
