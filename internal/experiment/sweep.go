package experiment

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
)

// schedule selects a form of the sweep scheduler.
type schedule int

const (
	// pooled runs cells on min(GOMAXPROCS, n) workers, each owning the
	// state (engine caches) its constructor builds: the production form.
	pooled schedule = iota
	// serial runs cells in plan order on one worker with the zero state
	// — no engine cache, so every cell builds a fresh engine: the
	// reference the pooled form is pinned against.
	serial
)

// cellTags are the runtime/pprof labels of one sweep cell.
type cellTags struct{ workload, controller, sensor string }

// sweepCells is the one scheduler every sweep of the package runs on:
// it executes cells 0..n-1 of a plan and returns their results in cell
// order. Workers pull cell indexes from one unbuffered channel, so the
// loop stays closed; each worker builds its state once with newState
// (the serial form skips it and runs on the zero state) and runs cells
// with run. Results land in cell-indexed slots, so aggregation in plan
// order is independent of completion order. Submission stops after the
// first failure — a paper-scale sweep is minutes of compute, so the
// remaining cells are not worth running — in-flight cells finish, and
// the error returned is the first in cell order. Each cell runs under
// the pprof labels tags returns plus the worker index, so CPU profiles
// attribute samples to the cell being executed (filter with e.g.
// `pprof -tagfocus controller=util`).
func sweepCells[S, R any](form schedule, n int, newState func() S, run func(S, int) (R, error), tags func(int) cellTags) ([]R, error) {
	out := make([]R, n)
	errs := make([]error, n)
	workers := 1
	if form == pooled {
		workers = min(runtime.GOMAXPROCS(0), n)
	}
	// stop is the lowest failed cell index (n while none failed): nothing
	// past it is submitted, and a cell past it already handed to a worker
	// is skipped.
	var stop atomic.Int64
	stop.Store(int64(n))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var state S
			if form == pooled && newState != nil {
				state = newState()
			}
			for idx := range jobs {
				if int64(idx) > stop.Load() {
					continue
				}
				t := tags(idx)
				pprof.Do(context.Background(), pprof.Labels(
					"workload", t.workload,
					"controller", t.controller,
					"sensor", t.sensor,
					"worker", strconv.Itoa(w),
				), func(context.Context) { out[idx], errs[idx] = run(state, idx) })
				for errs[idx] != nil { // lower stop to idx unless a lower cell failed first
					cur := stop.Load()
					if int64(idx) >= cur || stop.CompareAndSwap(cur, int64(idx)) {
						break
					}
				}
			}
		}()
	}
	for idx := 0; int64(idx) < stop.Load(); idx++ {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// engineCell is one engine-backed sweep cell: a controller run on a
// pattern under a seed-patched setup whose Sensor is the cell's
// observation spec. slot indexes the sweep setup — and with it the
// worker's EngineCache — the cell runs on.
type engineCell struct {
	slot        int
	setup       scenario.Setup
	pattern     scenario.Pattern
	ctl         scenario.ControllerSpec
	durationSec float64
	// workload is the cell's pprof workload label and error prefix.
	workload string
}

// run executes the cell on a cached engine or, with cache == nil (the
// serial reference), on a freshly built scenario and engine. Specs of
// one controller kind share a cached engine, like CAP-BP periods in the
// Table III sweep. A cell whose sensor spec differs from the cache's
// base setup gets a fresh sensor swapped in through RunSensor.
func (c engineCell) run(cache *EngineCache) (Result, error) {
	factory, err := c.setup.Controller(c.ctl)
	if err != nil {
		return Result{}, err
	}
	if cache == nil {
		return Run(Spec{Setup: c.setup, Pattern: c.pattern, Factory: factory, DurationSec: c.durationSec})
	}
	family := ControllerFamily(c.ctl.Kind.String())
	if c.setup.Sensor == cache.artifacts.Base().Sensor {
		return cache.Run(c.pattern, family, factory, c.setup.Seed, c.durationSec)
	}
	var sensor sensing.Sensor
	if !c.setup.Sensor.Perfect() {
		if sensor, err = c.setup.Sensor.New(); err != nil {
			return Result{}, err
		}
		sensor.Reseed(c.setup.Seed)
	}
	return cache.RunSensor(c.pattern, family, factory, sensor, c.setup.Seed, c.durationSec)
}

func (c engineCell) tags() cellTags {
	return cellTags{c.workload, c.ctl.String(), c.setup.Sensor.String()}
}

// engineSweep runs n engine-backed cells, described by cell, on the
// scheduler. All workers share one concurrency-safe ArtifactCache per
// setup, so the immutable scenario state (network, rate tables,
// interned route table) exists once per process; on top of it each
// pooled worker owns one EngineCache per setup, so a handful of engines
// serve the whole sweep via ResetWith swaps (DESIGN.md §3, §5).
func engineSweep(form schedule, setups []scenario.Setup, n int, cell func(int) engineCell) ([]Result, error) {
	shared := make([]*scenario.ArtifactCache, len(setups))
	for i, s := range setups {
		shared[i] = scenario.NewArtifactCache(s)
	}
	newCaches := func() []*EngineCache {
		caches := make([]*EngineCache, len(shared))
		for i, a := range shared {
			caches[i] = NewSharedEngineCache(a)
		}
		return caches
	}
	return sweepCells(form, n, newCaches, func(caches []*EngineCache, idx int) (Result, error) {
		c := cell(idx)
		var cache *EngineCache
		if caches != nil {
			cache = caches[c.slot]
		}
		res, err := c.run(cache)
		if err != nil {
			return Result{}, fmt.Errorf("experiment: %s %v sensor %v seed %d: %w",
				c.workload, c.ctl, c.setup.Sensor, c.setup.Seed, err)
		}
		return res, nil
	}, func(idx int) cellTags { return cell(idx).tags() })
}

// meanWaits extracts the network-mean queuing time of every cell.
func meanWaits(res []Result) []float64 {
	waits := make([]float64, len(res))
	for i, r := range res {
		waits[i] = r.Summary.MeanWait
	}
	return waits
}

// degradationPct is the mean per-seed wait increase of waits over the
// reference waits refs, in percent; seeds with a zero reference
// contribute nothing.
func degradationPct(waits, refs []float64) float64 {
	deg := 0.0
	for i, w := range waits {
		if ref := refs[i]; ref > 0 {
			deg += 100 * (w - ref) / ref
		}
	}
	return deg / float64(len(waits))
}
