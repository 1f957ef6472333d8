package sim

import "sync"

// Round phases executed by pool workers.
const (
	phaseSnapshot = iota // Phase A: sharded display counts, or the display vector on a graph
	phaseObserve         // Phase B: observe, update, tally opinions
	phaseInit            // New and Reset: reseed chunk streams and rebuild the population
)

// pool is the persistent worker pool of a Runner. Workers are spawned once
// at construction and parked on per-worker gate channels; a round costs two
// barrier crossings (one per phase) and zero goroutine creations or heap
// allocations. New and Reset use the same workers for a third phase that
// rebuilds the population.
//
// The pool deliberately holds no reference to its Runner while idle: the
// coordinator attaches the Runner for the duration of a Run and detaches it
// afterwards. Parked workers therefore keep only the pool alive, which lets
// the Runner's finalizer reclaim an abandoned pool (see Runner.Close).
type pool struct {
	gates []chan int // per-worker phase signal, buffered(1)
	wg    sync.WaitGroup
	r     *Runner // attached Runner; nil while no Run is in progress
	once  sync.Once
}

func newPool(workers int) *pool {
	p := &pool{gates: make([]chan int, workers)}
	for w := range p.gates {
		p.gates[w] = make(chan int, 1)
		go p.worker(w)
	}
	return p
}

// worker is the body of pool worker w: wait for a phase signal, execute that
// phase over the worker's share of the population — a strided set of fixed
// chunks — then signal completion. The gate receive happens-after the
// coordinator's p.r write in attach, and the wg.Done happens-before the
// coordinator's wg.Wait return, so all state handoffs are properly
// synchronized.
func (p *pool) worker(w int) {
	for ph := range p.gates[w] {
		switch ph {
		case phaseSnapshot:
			p.r.vecCountRange(w)
		case phaseObserve:
			p.r.vecStepRange(w)
		default:
			p.r.vecInitRange(w)
		}
		p.wg.Done()
	}
}

// attach points the workers at r for an upcoming Run, or for the
// population rebuild of New and Reset.
func (p *pool) attach(r *Runner) { p.r = r }

// detach releases the Runner reference so an idle pool does not keep it
// reachable.
func (p *pool) detach() { p.r = nil }

// dispatch runs one phase on every worker and blocks until all complete.
func (p *pool) dispatch(ph int) {
	p.wg.Add(len(p.gates))
	for _, g := range p.gates {
		g <- ph
	}
	p.wg.Wait()
}

// close terminates the workers. Idempotent.
func (p *pool) close() {
	p.once.Do(func() {
		for _, g := range p.gates {
			close(g)
		}
	})
}
