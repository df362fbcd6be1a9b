package exec

import (
	"sync"

	"repro/internal/govern"
	"repro/internal/schema"
)

// morselPump runs a morsel function over nm pre-built work units and
// delivers the per-morsel outputs strictly in morsel order — the
// streaming counterpart of parallelMorsels + concatMorsels. With more
// than one worker, a pool claims morsels off a shared cursor bounded by
// a small look-ahead window (so an unread stream never materializes the
// whole input); with one worker the morsels run on the consuming
// goroutine. Workers start lazily on the first next call and carry the
// same per-morsel contract as the materializing pool: a cancellation
// poll before each claim, the WorkerPanic injection, and panic
// containment via govern.Internalize. The first error is sticky and
// aborts the remaining morsels.
type morselPump struct {
	ctx     *Ctx
	nm      int
	workers int
	// window bounds how far claims may run ahead of delivery.
	window int
	fn     func(m int) ([]schema.Row, error)

	started    bool
	serialNext int

	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool
	err     error
	claim   int
	deliver int
	pending map[int][]schema.Row
	wg      sync.WaitGroup
}

func newMorselPump(ctx *Ctx, nm, workers int, fn func(m int) ([]schema.Row, error)) *morselPump {
	p := &morselPump{ctx: ctx, nm: nm, workers: workers, window: 2 * workers, fn: fn}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// next returns the next non-empty morsel output in order, and (nil, nil)
// only after the last morsel: a morsel that produced no row (a fused
// predicate that matched nothing in it) is skipped here, so it can never
// read as end of stream downstream.
func (p *morselPump) next() ([]schema.Row, error) {
	if p.workers <= 1 {
		return p.nextSerial()
	}
	if !p.started {
		p.started = true
		p.pending = make(map[int][]schema.Row, p.window)
		for w := 0; w < p.workers; w++ {
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.worker()
			}()
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.err != nil {
			return nil, p.err
		}
		if p.deliver >= p.nm {
			return nil, nil
		}
		if out, ok := p.pending[p.deliver]; ok {
			delete(p.pending, p.deliver)
			p.deliver++
			// The window moved: wake workers parked on the claim bound.
			p.cond.Broadcast()
			if len(out) == 0 {
				continue
			}
			return out, nil
		}
		p.cond.Wait()
	}
}

func (p *morselPump) nextSerial() ([]schema.Row, error) {
	for p.serialNext < p.nm {
		if err := p.ctx.Canceled(); err != nil {
			return nil, err
		}
		m := p.serialNext
		p.serialNext++
		// Panics (including the WorkerPanic injection) propagate to the
		// opStream recover, matching the serial materializing path where
		// they reach Run's recover.
		p.ctx.res.MaybePanic()
		if out, err := p.fn(m); err != nil || len(out) > 0 {
			return out, err
		}
	}
	return nil, nil
}

func (p *morselPump) worker() {
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
			p.fail(err)
			return
		}
		out, err := p.runMorsel(m)
		if err != nil {
			p.fail(err)
			return
		}
		p.mu.Lock()
		p.pending[m] = out
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// runMorsel executes one morsel with the pool's panic containment.
func (p *morselPump) runMorsel(m int) (out []schema.Row, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			out, err = nil, govern.Internalize(rec)
		}
	}()
	p.ctx.res.MaybePanic()
	return p.fn(m)
}

func (p *morselPump) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// close stops the pump: parked workers wake and exit, in-flight morsels
// finish, and the pool joins before close returns — no goroutine
// outlives the stream.
func (p *morselPump) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}
