package bench

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"milr/internal/core"
	"milr/internal/par"
)

// Sharded fault-injection campaigns. Every experiment in this package
// decomposes into independent cells (one injection + repair + accuracy
// measurement); a campaign shards its cells across a bounded pool of
// environment clones. Determinism contract: a cell's PRNG stream
// derives from the master seed and the cell's coordinates alone
// (runSeed), every clone is state-identical to the master, and cells
// reset their environment before running — so campaign results are
// bit-identical for every worker count, which the determinism
// regression tests in shard_test.go pin down.

// SetWorkers retunes every worker pool of a live environment: the
// campaign shards, the MILR engine, and the model's GEMM layers.
func (e *Env) SetWorkers(n int) {
	e.Config.Workers = n
	e.Model.SetWorkers(n)
	e.Protector.SetWorkers(n)
}

// Clone builds an independent environment with identical state: same
// architecture, same clean weights, same protector golden data (copied
// through the Save/Load persistence path, not re-initialized), same ECC
// codes. The test set and clean snapshot are shared read-only. The
// clone is what a campaign worker mutates so shards never contend.
func (e *Env) Clone() (*Env, error) {
	model, err := newModel(e.Network, e.Config)
	if err != nil {
		return nil, err
	}
	if err := model.Restore(e.clean); err != nil {
		return nil, fmt.Errorf("bench: clone restore: %w", err)
	}
	var buf bytes.Buffer
	if err := e.Protector.Save(&buf); err != nil {
		return nil, fmt.Errorf("bench: clone protector save: %w", err)
	}
	pr, err := core.LoadProtector(&buf, model)
	if err != nil {
		return nil, fmt.Errorf("bench: clone protector load: %w", err)
	}
	return e.withModel(model, pr), nil
}

// campaignWorkers resolves Config.Workers for an n-cell campaign:
// 0 stays serial, n > 0 is honored, negative means GOMAXPROCS.
func (e *Env) campaignWorkers(n int) int {
	if e.Config.Workers == 0 {
		return 1
	}
	return par.Resolve(e.Config.Workers, n)
}

// forEachCell runs fn(env, i) for every cell index in [0,n). Serially
// it uses e itself; sharded, worker 0 keeps e and every other worker
// gets a clone, with cells handed out dynamically (campaign cells have
// very uneven cost — a NoRecovery cell is one evaluation, an ECC+MILR
// cell is a scrub plus a self-heal). fn must leave its env resettable;
// cells must not touch shared mutable state except their own result
// slots. The lowest-indexed cell error is returned; e is reset before
// returning so the master environment always ends clean.
func (e *Env) forEachCell(n int, fn func(env *Env, i int) error) error {
	workers := e.campaignWorkers(n)
	var err error
	if workers <= 1 {
		err = e.forEachCellOn(e, n, nil, fn)
	} else {
		envs := make([]*Env, workers)
		envs[0] = e
		for i := 1; i < workers; i++ {
			clone, cerr := e.Clone()
			if cerr != nil {
				return cerr
			}
			envs[i] = clone
		}
		// Campaign shards are the parallel unit: drop every shard's
		// inner pools (engine solvers, GEMM) to serial for the
		// duration, or P shards × P-way solvers × P-way GEMM would
		// oversubscribe P cores instead of dividing the cells.
		for _, env := range envs {
			env.Model.SetWorkers(0)
			env.Protector.SetWorkers(0)
		}
		// One pool item per shard: each drains the shared cell counter
		// on its own env, so an item never runs concurrently with
		// itself and every cell lands in its own result slot.
		var next atomic.Int64
		errs := make([]error, n)
		par.For(workers, workers, func(w int) {
			e.forEachCellOn(envs[w], n, &next, func(env *Env, i int) error {
				errs[i] = fn(env, i)
				return nil
			})
		})
		e.Model.SetWorkers(e.Config.Workers)
		e.Protector.SetWorkers(e.Config.Workers)
		for _, cellErr := range errs {
			if cellErr != nil {
				err = cellErr
				break
			}
		}
	}
	if rerr := e.Reset(); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// forEachCellOn drains cells onto one environment: all of [0,n) when
// next is nil (the serial path), otherwise whatever the shared counter
// hands out.
func (e *Env) forEachCellOn(env *Env, n int, next *atomic.Int64, fn func(env *Env, i int) error) error {
	if next == nil {
		for i := 0; i < n; i++ {
			if err := fn(env, i); err != nil {
				return err
			}
		}
		return nil
	}
	for {
		i := int(next.Add(1)) - 1
		if i >= n {
			return nil
		}
		if err := fn(env, i); err != nil {
			return err
		}
	}
}
