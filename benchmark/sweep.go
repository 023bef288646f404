package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"utilbp/internal/analysis"
	"utilbp/internal/experiment"
	"utilbp/internal/scenario"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
)

// sweepWorkload is the Table III multi-seed sweep: every pattern, every
// CAP-BP period plus UTIL-BP, for every seed.
type sweepWorkload struct {
	setup       scenario.Setup
	patterns    []scenario.Pattern
	periods     []int
	seeds       []uint64
	durationSec float64 // 0 runs each pattern's paper horizon
	workers     int
}

func (s *sweepWorkload) perGroup() int { return len(s.periods) + 1 }
func (s *sweepWorkload) cells() int    { return len(s.patterns) * len(s.seeds) * s.perGroup() }

// cell decomposes a flat cell index in the order TableIIIMultiSeed's
// plan uses: pattern, then seed, then CAP-BP periods followed by UTIL-BP.
func (s *sweepWorkload) cell(idx int) (scenario.Pattern, uint64, experiment.ControllerFamily, signal.Factory) {
	job := idx % s.perGroup()
	group := idx / s.perGroup()
	pattern, seed := s.patterns[group/len(s.seeds)], s.seeds[group%len(s.seeds)]
	setup := s.setup
	setup.Seed = seed
	if job < len(s.periods) {
		return pattern, seed, experiment.FamilyCapBP, setup.CapBP(s.periods[job])
	}
	return pattern, seed, experiment.FamilyUtilBP, setup.UtilBP()
}

// setupOnce times what the sweep builds before its first cell runs: one
// scenario artifact per pattern, and per worker one instance per
// pattern plus an engine per controller family.
func (s *sweepWorkload) setupOnce() (setupTimes, error) {
	var st setupTimes
	arts := make([]*scenario.Artifact, len(s.patterns))
	t0 := time.Now()
	for i, p := range s.patterns {
		a, err := s.setup.BuildArtifact(p)
		if err != nil {
			return st, err
		}
		arts[i] = a
	}
	st.artifact = time.Since(t0)
	for w := 0; w < s.workers; w++ {
		t1 := time.Now()
		insts := make([]*scenario.Instance, len(arts))
		for i, a := range arts {
			insts[i] = a.Instantiate()
		}
		st.instantiate += time.Since(t1)
		inst := insts[len(insts)-1]
		duration := s.durationSec
		if duration == 0 {
			duration = inst.Duration
		}
		t2 := time.Now()
		for _, f := range []signal.Factory{s.setup.CapBP(s.periods[0]), s.setup.UtilBP()} {
			if _, err := sim.New(sim.Config{
				Net:              inst.Grid.Network,
				Controllers:      f,
				Demand:           inst.Demand,
				Router:           inst.Router,
				Routes:           inst.Routes,
				ExpectedVehicles: inst.ExpectedVehicles(duration),
			}); err != nil {
				return st, err
			}
		}
		st.newEngine += time.Since(t2)
	}
	return st, nil
}

// timed runs experiment.TableIIIMultiSeed once.
func (s *sweepWorkload) timed() ([]experiment.SeedStats, time.Duration, error) {
	start := time.Now()
	rows, err := experiment.TableIIIMultiSeed(s.setup, s.patterns, s.periods, s.durationSec, s.seeds)
	return rows, time.Since(start), err
}

// loopResult is one pass of the benchmark's own closed loop over
// EngineCache.Run.
type loopResult struct {
	waits  []float64
	cellMs []float64
	wall   time.Duration
	busy   time.Duration // summed cell time over all workers
	caches []*experiment.EngineCache
	tr     *tracer
}

// loop runs every cell of the sweep on s.workers goroutines, each
// pulling the next cell when its last one finishes and running it on
// its own experiment.EngineCache over one shared artifact cache — the
// configuration TableIIIMultiSeed schedules, with each cell visible.
// With trace set, every cell is a span and UTIL-BP's DecideAll rounds
// are wrapped.
func (s *sweepWorkload) loop(trace bool) (*loopResult, error) {
	n := s.cells()
	res := &loopResult{waits: make([]float64, n), cellMs: make([]float64, n), caches: make([]*experiment.EngineCache, s.workers)}
	errs := make([]error, n)
	tracers := make([]*tracer, s.workers)
	arts := scenario.NewArtifactCache(s.setup)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < s.workers; w++ {
		cache := experiment.NewSharedEngineCache(arts)
		res.caches[w] = cache
		var tr *tracer
		if trace {
			tr = &tracer{}
			tracers[w] = tr
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1) - 1)
				if idx >= n {
					return
				}
				pattern, seed, family, factory := s.cell(idx)
				sp := tr.begin("cell")
				c0 := time.Now()
				r, err := cache.Run(pattern, family, traceFactory(factory, tr), seed, s.durationSec)
				res.cellMs[idx] = ms(time.Since(c0))
				tr.end(sp)
				errs[idx] = err
				res.waits[idx] = r.Summary.MeanWait
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		res.busy += time.Duration(res.cellMs[i] * 1e6)
	}
	if trace {
		res.tr = &tracer{}
		for _, tr := range tracers {
			res.tr.merge(tr)
		}
	}
	return res, nil
}

// aggregate folds the per-cell mean waits into Table III rows exactly
// as experiment.TableIIIMultiSeed does: per (pattern, seed) the first
// best CAP-BP period is the baseline UTIL-BP is compared against.
func (s *sweepWorkload) aggregate(waits []float64) ([]experiment.SeedStats, error) {
	per := s.perGroup()
	out := make([]experiment.SeedStats, 0, len(s.patterns))
	for pi, pat := range s.patterns {
		row := experiment.SeedStats{Pattern: pat, Improvements: make([]float64, len(s.seeds))}
		for si := range s.seeds {
			group := waits[(pi*len(s.seeds)+si)*per:][:per]
			capWaits := group[:len(s.periods)]
			imp, err := analysis.Improvement(capWaits[analysis.ArgMin(capWaits)], group[len(s.periods)])
			if err != nil {
				return nil, err
			}
			row.Improvements[si] = imp * 100
			if row.Improvements[si] > 0 {
				row.Wins++
			}
		}
		row.Mean = analysis.Mean(row.Improvements)
		row.Std = analysis.Std(row.Improvements)
		out = append(out, row)
	}
	return out, nil
}

// utilWaits returns the UTIL-BP cells' mean waits.
func (s *sweepWorkload) utilWaits(waits []float64) []float64 {
	var out []float64
	for i := len(s.periods); i < len(waits); i += s.perGroup() {
		out = append(out, waits[i])
	}
	return out
}

// digestBytes serializes the SeedStats floats bit-exactly; the sweep's
// result digest is their SHA-256.
func digestBytes(rows []experiment.SeedStats) []byte {
	var b []byte
	put := func(v float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	for _, r := range rows {
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Pattern))
		for _, v := range r.Improvements {
			put(v)
		}
		put(r.Mean)
		put(r.Std)
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Wins))
	}
	return b
}

func digest(rows []experiment.SeedStats, tamper func(string, []byte)) [32]byte {
	b := digestBytes(rows)
	if tamper != nil {
		tamper("digest", b)
	}
	return sha256.Sum256(b)
}

// improvementPct is the mean over Table III rows of UTIL-BP's mean
// improvement over best-period CAP-BP.
func improvementPct(rows []experiment.SeedStats) float64 {
	means := make([]float64, len(rows))
	for i, r := range rows {
		means[i] = r.Mean
	}
	return mean(means)
}
