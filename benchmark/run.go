package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"time"

	"utilbp/internal/experiment"
	"utilbp/internal/sim"
)

// runWorkload runs one workload at full size and returns its report
// and, for a traced run, the spans.
func runWorkload(name string, cfg runConfig) (*report, *tracer, error) {
	if name == "table3-sweep" {
		return runSweep(newSweep(cfg.seed), newProbe(cfg.seed), cfg)
	}
	w, err := newEngineWorkload(name, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	return runEngine(w, cfg)
}

// runEngine measures a single-engine workload.
func runEngine(w *engineWorkload, cfg runConfig) (*report, *tracer, error) {
	rp := newReport(cfg.trace)
	m, err := startEngine(w, cfg, rp)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	for !m.failed && !(time.Since(start) >= cfg.budget(1) && m.enough()) {
		m.next()
	}
	if err := m.finish(); err != nil {
		return nil, nil, err
	}
	m.setEndToEnd(rp)
	m.setLayers(rp, w)
	return rp, m.tr, nil
}

// engineMeasure is a single-engine measurement: the engines it steps
// and what its runs measured. Its runs cycle through the run's seeds so
// every figure is taken over all of them. A traced measurement first
// times the telemetry flush on a paired engine, then alternates
// untraced and traced runs, so tracing overhead is an interleaved
// comparison. Every run of a seed must end in the same state, traced or
// not.
type engineMeasure struct {
	w               *engineWorkload
	cfg             runConfig
	rp              *report
	primary, target *rig
	seeds           []uint64
	refs            []*[32]byte
	runs            int
	failed          bool

	setups           []setupTimes
	untraced, traced []repResult
	last             *repResult
	tr               *tracer
	floor            float64 // RunTimed's per-substep clock floor, ns
	flushNs          float64
	heapMB           float64
}

// startEngine times the workload's set-up cfg.setupReps times, keeping
// the last engine built, and builds the second engine checkpoints are
// restored into.
func startEngine(w *engineWorkload, cfg runConfig, rp *report) (*engineMeasure, error) {
	m := &engineMeasure{w: w, cfg: cfg, rp: rp, seeds: runSeeds(cfg.seed)}
	m.refs = make([]*[32]byte, len(m.seeds))
	for i := 0; i < cfg.setupReps; i++ {
		m.primary = nil
		runtime.GC()
		r, st, err := w.build(w.telemetry)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setups = append(m.setups, st)
		m.primary = r
	}
	var err error
	if m.target, _, err = w.build(false); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if cfg.trace {
		m.tr = &tracer{}
		m.floor = clockFloor()
		flush, same, err := w.pairedFlush(m.primary, m.target, m.seeds[0])
		if rp.work("paired telemetry run", err) {
			m.flushNs = flush
			rp.check("telemetry only observes", same, "engines with and without a recorder diverged")
		}
	}
	return m, nil
}

// enough reports whether the runs so far cover every seed equally, make
// at least cfg.minReps untraced runs and, when tracing, a traced run of
// every seed.
func (m *engineMeasure) enough() bool {
	return m.runs%len(m.seeds) == 0 && len(m.untraced) >= m.cfg.minReps &&
		(!m.cfg.trace || len(m.traced) >= len(m.seeds))
}

// next makes one run and checks it, then times one more set-up, so the
// set-up samples spread over the whole measurement.
func (m *engineMeasure) next() {
	defer m.sampleSetup()
	i := m.runs
	m.runs++
	var tr *tracer
	if m.cfg.trace && i%2 == 1 {
		tr = m.tr
	}
	k := i % len(m.seeds)
	res, err := m.w.rep(m.primary, m.target, m.seeds[k], tr, m.cfg.tamper)
	if !m.rp.work("engine run", err) {
		m.failed = true
		return
	}
	m.rp.check("invariants hold at the end of the run", res.invariants == nil, fmt.Sprint(res.invariants))
	if m.refs[k] == nil {
		m.refs[k] = &res.finalHash
	} else {
		m.rp.check("every run of a seed, traced or not, ends in the same state", res.finalHash == *m.refs[k],
			fmt.Sprintf("run %d of seed %d differs from its first run", i, m.seeds[k]))
	}
	if tr != nil {
		m.traced = append(m.traced, res)
	} else {
		m.untraced = append(m.untraced, res)
	}
	m.last = &res
}

func (m *engineMeasure) sampleSetup() {
	if m.failed {
		return
	}
	runtime.GC()
	_, st, err := m.w.build(m.w.telemetry)
	if m.rp.work("set-up", err) {
		m.setups = append(m.setups, st)
	}
}

// finish measures the live heap with both engines referenced, then
// checks that the last checkpoint, restored into a freshly built
// engine, reaches the state the run ended in.
func (m *engineMeasure) finish() error {
	m.heapMB = liveHeapMB()
	last := m.last
	if last == nil || last.ckStep == 0 {
		return nil
	}
	// target holds the last checkpoint; snapshotting it again yields the
	// checkpoint's bytes.
	fresh, _, err := m.w.build(false)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	err = fresh.engine.Restore(m.target.engine.Snapshot())
	if m.rp.work("restore the last checkpoint into a fresh engine", err) {
		fresh.engine.Run(last.finalStep - last.ckStep)
		got := sha256.Sum256(fresh.engine.Snapshot())
		m.rp.check("the last checkpoint, restored into a fresh engine, reaches the same final state",
			got == last.finalHash, fmt.Sprintf("restored at step %d, compared at step %d", last.ckStep, last.finalStep))
	}
	return nil
}

func (o *engineMeasure) collect(traced bool, f func(r *repResult) []float64) []float64 {
	reps := o.untraced
	if traced {
		reps = o.traced
	}
	var out []float64
	for i := range reps {
		out = append(out, f(&reps[i])...)
	}
	return out
}

func one(v float64) []float64 { return []float64{v} }

// setStepMetrics sets the metrics the drain-shaped run measures for
// every workload: per-step windows and checkpoints.
func (o *engineMeasure) setStepMetrics(rp *report) {
	loaded := o.collect(false, func(r *repResult) []float64 { return r.loaded })
	drained := o.collect(false, func(r *repResult) []float64 { return r.drained })
	rp.set("loaded_step_us.p50", median(loaded), fmt.Sprintf("median of %d loaded windows", len(loaded)))
	rp.set("loaded_step_us.p90", percentile(loaded, 0.9), fmt.Sprintf("%d of %d windows beyond", tailCount(len(loaded), 0.9), len(loaded)))
	rp.set("drained_step_us.p50", median(drained), fmt.Sprintf("median of %d drained windows", len(drained)))
	cks := o.collect(false, func(r *repResult) []float64 {
		out := make([]float64, len(r.ckCapture))
		for i := range out {
			out[i] = (r.ckCapture[i] + r.ckRestore[i]) / 1e3
		}
		return out
	})
	rp.set("checkpoint_ms.p50", median(cks), fmt.Sprintf("median of %d snapshot+restore round trips", len(cks)))
	sizes := o.collect(false, func(r *repResult) []float64 { return one(float64(r.ckBytes) / 1e6) })
	rp.set("snapshot_mb", median(sizes), fmt.Sprintf("median last checkpoint of %d runs", len(sizes)))
}

func (o *engineMeasure) setEndToEnd(rp *report) {
	setups := make([]float64, len(o.setups))
	for i, s := range o.setups {
		setups[i] = s.total().Seconds()
	}
	rp.set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	walls := o.collect(false, func(r *repResult) []float64 { return one(r.wall.Seconds()) })
	rp.set("wall_s", median(walls), fmt.Sprintf("median of %d runs, checkpoints included", len(walls)))
	o.setStepMetrics(rp)
	rp.set("heap_mb", o.heapMB, "after forced GC, both engines referenced")
	waits := o.collect(false, func(r *repResult) []float64 { return one(r.meanWait) })
	rp.set("mean_wait_s", mean(waits), fmt.Sprintf("network-average queuing time, mean of %d runs over %d seeds", len(waits), len(runSeeds(0))))
}

// setLayers sets the per-layer metrics of a traced run. The sweep
// overrides the experiment and control figures with its own.
func (o *engineMeasure) setLayers(rp *report, w *engineWorkload) {
	if !rp.trace {
		return
	}
	if len(o.traced) == 0 || len(o.untraced) == 0 {
		// A failed run stopped the measurement; the failure is counted.
		for _, d := range perLayer {
			rp.set(d.name, math.NaN(), "no traced and untraced runs to compare")
		}
		return
	}
	for _, name := range []string{"experiment.cells", "experiment.cell_ms.p50", "experiment.cell_ms.p90", "experiment.parallel_eff"} {
		rp.set(name, 0, "no sweep cells on this workload")
	}
	pick := func(f func(s setupTimes) time.Duration) []float64 {
		out := make([]float64, len(o.setups))
		for i, s := range o.setups {
			out[i] = float64(f(s).Nanoseconds())
		}
		return out
	}
	rp.set("scenario.build_artifact_ms", median(pick(func(s setupTimes) time.Duration { return s.artifact }))/1e6, "median set-up")
	rp.set("scenario.instantiate_us", median(pick(func(s setupTimes) time.Duration { return s.instantiate }))/1e3, "median set-up")
	rp.set("sim.new_ms", median(pick(func(s setupTimes) time.Duration { return s.newEngine }))/1e6, "median set-up")
	all := append(append([]repResult(nil), o.untraced...), o.traced...)
	resets := make([]float64, len(all))
	for i, r := range all {
		resets[i] = us(r.reset)
	}
	rp.set("sim.reset_us", median(resets), fmt.Sprintf("median of %d ResetWith calls", len(resets)))

	// Substep split, floor-corrected, per step.
	var lt, dt timingsSum
	var steps, spawned, served, exited, transitions float64
	var mem memCounters
	for _, r := range o.traced {
		lt.add(r.ptLoaded)
		dt.add(r.ptDrained)
		steps += float64(r.finalStep)
		spawned += float64(r.spawned)
		served += float64(r.served)
		exited += float64(r.exited)
		transitions += float64(r.transitions)
	}
	for _, r := range o.untraced {
		mem.mallocs += r.mem.mallocs
		mem.totalAlloc += r.mem.totalAlloc
		mem.numGC += r.mem.numGC
	}
	nt := float64(len(o.traced))
	rp.set("sim.clock_floor_ns", o.floor, "per RunTimed substep interval")
	loadedSum := 0.0
	for i, name := range substeps {
		l := lt.perStep(i) - o.floor
		loadedSum += l
		rp.set("sim."+name+"_ns.loaded", l, fmt.Sprintf("over %d loaded steps", lt.steps))
		rp.set("sim."+name+"_ns.drained", dt.perStep(i)-o.floor, fmt.Sprintf("over %d drained steps", dt.steps))
	}
	// Loaded windows are all the same length, so their mean is the
	// untraced loaded step time.
	untracedStepNs := mean(o.collect(false, func(r *repResult) []float64 { return r.loaded })) * 1e3
	ratio := loadedSum / untracedStepNs
	rp.set("sim.split_ratio", ratio, "floor-corrected loaded substep sum / untraced loaded step time")
	bound := boundOf("loaded_step_us.p50")
	rp.check("floor-corrected substep sum matches untraced step time", math.Abs(ratio-1) <= bound,
		fmt.Sprintf("ratio %.3f outside 1±%.2f", ratio, bound))
	if len(w.setup.Events) == 0 {
		ev := lt.perStep(0) - o.floor
		rp.check("floor-corrected events substep is about 0 without a schedule", math.Abs(ev) <= eventsTolerance(o.floor),
			fmt.Sprintf("%.1f ns per step with a %.1f ns floor", ev, o.floor))
	}
	loadSteps := float64(w.loadSteps) * nt
	rp.set("sim.spawned_per_step", spawned/loadSteps, "loaded phase")
	rp.set("sim.served_per_step", served/loadSteps, "loaded phase")
	rp.set("sim.exited_per_step", exited/loadSteps, "loaded phase")

	tr := o.tr
	rp.set("control.decide_ns", float64(tr.decide.Nanoseconds())/float64(max(tr.rounds, 1)), "per DecideAll round")
	rp.set("control.rounds", float64(tr.rounds)/nt, "DecideAll rounds per run")
	rp.set("control.full_rounds", float64(tr.fullRounds)/nt, "AllChanged rounds per run")
	rp.set("control.changed_frac", float64(tr.changedLinks)/float64(max(tr.seenLinks, 1)), "changed links / links decided over")
	links := float64(tr.seenLinks) / float64(max(tr.rounds, 1))
	rp.set("sensing.links_per_step", float64(tr.senseCalls)/steps, "SenseLink calls per step")
	rp.set("sensing.link_ns", (lt.perStep(1)-o.floor)/links, fmt.Sprintf("loaded sense substep per network link (%.0f links)", links))
	rp.set("event.transitions", transitions/nt, "schedule transitions applied per run")
	r0 := o.traced[0]
	rp.set("vehicle.arena_rows", float64(r0.rows), "at the demand cutoff")
	rp.set("vehicle.live_frac", float64(r0.live)/float64(max(r0.rows, 1)), "live rows / rows at the demand cutoff")
	capture := o.collect(true, func(r *repResult) []float64 { return r.ckCapture })
	restore := o.collect(true, func(r *repResult) []float64 { return r.ckRestore })
	rp.set("snap.capture_us.p50", median(capture), fmt.Sprintf("median of %d", len(capture)))
	rp.set("snap.restore_us.p50", median(restore), fmt.Sprintf("median of %d", len(restore)))
	rp.set("snap.bytes", float64(r0.ckBytes), fmt.Sprintf("last checkpoint, step %d", r0.ckStep))
	rp.set("snap.bytes_per_live_vehicle", float64(r0.ckBytes)/float64(max(r0.ckLive, 1)), fmt.Sprintf("%d live vehicles", r0.ckLive))
	note := "drained windows of paired engines, with recorder minus without"
	if !w.telemetry {
		note = "no recorder installed: noise floor of the drained-window pairing"
	}
	rp.set("telemetry.flush_ns", o.flushNs, note)
	sums := o.collect(false, func(r *repResult) []float64 { return one(ms(r.summarize)) })
	rp.set("stats.summarize_ms", median(sums), "median SummarizeArena")
	var untracedAll float64
	for _, r := range o.untraced {
		untracedAll += float64(r.finalStep)
	}
	rp.set("runtime.allocs_per_step", float64(mem.mallocs)/untracedAll, "untraced runs")
	rp.set("runtime.bytes_per_step", float64(mem.totalAlloc)/untracedAll, "untraced runs")
	rp.set("runtime.gc_cycles", float64(mem.numGC)/float64(len(o.untraced)), "per untraced run")
	tw := o.collect(true, func(r *repResult) []float64 { return one(r.wall.Seconds()) })
	uw := o.collect(false, func(r *repResult) []float64 { return one(r.wall.Seconds()) })
	rp.set("trace_overhead_pct", (median(tw)/median(uw)-1)*100, fmt.Sprintf("%d traced vs %d untraced interleaved runs", len(tw), len(uw)))
}

var substeps = []string{"events", "sense", "control", "serve", "travel", "arrivals"}

// timingsSum accumulates sim.PhaseTimings in substep order.
type timingsSum struct {
	ns    [6]float64
	steps int
}

func (t *timingsSum) add(pt sim.PhaseTimings) {
	for i, d := range [6]time.Duration{pt.Events, pt.Sense, pt.Control, pt.Serve, pt.Travel, pt.Arrivals} {
		t.ns[i] += float64(d.Nanoseconds())
	}
	t.steps += pt.Steps
}

func (t *timingsSum) perStep(i int) float64 { return t.ns[i] / float64(t.steps) }

// eventsTolerance is how far from 0 the floor-corrected events substep
// may read on a run without a disruption schedule, where the substep is
// one nil check: a quarter of the floor, and at least 5 ns.
func eventsTolerance(floor float64) float64 { return math.Max(5, floor/4) }

// runSweep measures the Table III sweep. The timed repetitions call
// experiment.TableIIIMultiSeed; the benchmark's own closed loop over
// EngineCache.Run then reruns the same cells, which must reproduce the
// sweep's digest bit for bit and yields the mean wait. The traced run
// alternates TableIIIMultiSeed with a traced closed loop, which is
// where the cell spans and control counters come from. The per-step,
// drain and checkpoint figures come from one paper-grid engine (probe).
func runSweep(s *sweepWorkload, probe *engineWorkload, cfg runConfig) (*report, *tracer, error) {
	rp := newReport(cfg.trace)
	var setups []setupTimes
	sampleSetup := func() error {
		runtime.GC()
		st, err := s.setupOnce()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st)
		return nil
	}
	for i := 0; i < cfg.setupReps; i++ {
		if err := sampleSetup(); err != nil {
			return nil, nil, err
		}
	}
	// The probe's runs are spread between the sweeps, so its figures
	// sample the whole run, not one slice of it.
	pm, err := startEngine(probe, cfg, rp)
	if err != nil {
		return nil, nil, fmt.Errorf("probe: %w", err)
	}
	probeRuns := func(n int) {
		for j := 0; j < n && !pm.failed; j++ {
			pm.next()
		}
	}
	var walls, tracedWalls []float64
	var ref [32]byte
	var rows []experiment.SeedStats
	var loops []*loopResult
	start := time.Now()
	for i := 0; ; i++ {
		if time.Since(start) >= cfg.budget(0.85) && len(walls) >= cfg.minReps && (!cfg.trace || len(loops) > 0) {
			break
		}
		probeRuns(len(pm.seeds))
		if err := sampleSetup(); err != nil {
			return nil, nil, err
		}
		runtime.GC()
		if cfg.trace && i%2 == 1 {
			lr, err := s.loop(true)
			if !rp.work("traced closed-loop sweep", err) {
				break
			}
			loops = append(loops, lr)
			tracedWalls = append(tracedWalls, lr.wall.Seconds())
			continue
		}
		got, wall, err := s.timed()
		if !rp.work("TableIIIMultiSeed", err) {
			break
		}
		d := digest(got, cfg.tamper)
		if len(walls) == 0 {
			ref, rows = d, got
		} else {
			rp.check("sweep digest identical across repeated sweeps", d == ref, fmt.Sprintf("sweep %d differs from sweep 0", len(walls)))
		}
		walls = append(walls, wall.Seconds())
	}
	for !pm.failed && !pm.enough() {
		pm.next()
	}
	if !cfg.trace {
		runtime.GC()
		lr, err := s.loop(false)
		if rp.work("closed-loop sweep", err) {
			loops = append(loops, lr)
		}
	}
	for _, lr := range loops {
		agg, err := s.aggregate(lr.waits)
		rp.check("closed loop over EngineCache.Run reproduces TableIIIMultiSeed bit for bit",
			err == nil && rows != nil && digest(agg, nil) == ref, fmt.Sprint(err))
	}
	heap := math.NaN()
	if len(loops) > 0 {
		for _, lr := range loops[:len(loops)-1] {
			lr.caches = nil
		}
		heap = liveHeapMB()
		runtime.KeepAlive(loops)
	}
	if err := pm.finish(); err != nil {
		return nil, nil, fmt.Errorf("probe: %w", err)
	}
	totals := make([]float64, len(setups))
	for i, st := range setups {
		totals[i] = st.total().Seconds()
	}
	rp.set("setup_s", median(totals), fmt.Sprintf("median of %d set-ups: %d artifacts, %d workers' instances and engines", len(totals), len(s.patterns), s.workers))
	rp.set("wall_s", median(walls), fmt.Sprintf("median of %d TableIIIMultiSeed makespans, %d cells, %d workers", len(walls), s.cells(), s.workers))
	pm.setStepMetrics(rp)
	rp.set("heap_mb", heap, "after forced GC, the closed loop's engine caches and the probe's engines referenced")
	if len(loops) > 0 {
		rp.set("mean_wait_s", mean(s.utilWaits(loops[0].waits)), fmt.Sprintf("UTIL-BP cells, %d patterns x %d seeds", len(s.patterns), len(s.seeds)))
	} else {
		rp.set("mean_wait_s", math.NaN(), "")
	}
	if rows != nil {
		rp.set("improvement_pct", improvementPct(rows), "UTIL-BP over best CAP-BP, mean of Table III rows")
	}
	if !cfg.trace {
		return rp, nil, nil
	}

	pm.setLayers(rp, probe)
	// The sweep's own layers replace the probe's where the sweep is what
	// they describe.
	tr := &tracer{}
	var cellMs, effs []float64
	for _, lr := range loops {
		if lr.tr == nil {
			continue
		}
		tr.merge(lr.tr)
		cellMs = append(cellMs, lr.cellMs...)
		effs = append(effs, lr.busy.Seconds()/(lr.wall.Seconds()*float64(s.workers)))
	}
	passes := float64(len(tracedWalls))
	rp.set("experiment.cells", float64(s.cells()), "per sweep")
	rp.set("experiment.cell_ms.p50", median(cellMs), fmt.Sprintf("median of %d cells", len(cellMs)))
	rp.set("experiment.cell_ms.p90", percentile(cellMs, 0.9), fmt.Sprintf("%d of %d cells beyond", tailCount(len(cellMs), 0.9), len(cellMs)))
	rp.set("experiment.parallel_eff", median(effs), "summed cell time / (makespan x workers)")
	ss := func(f func(setupTimes) time.Duration, scale float64) float64 {
		v := make([]float64, len(setups))
		for i, st := range setups {
			v[i] = float64(f(st).Nanoseconds()) / scale
		}
		return median(v)
	}
	rp.set("scenario.build_artifact_ms", ss(func(st setupTimes) time.Duration { return st.artifact }, 1e6), "all patterns, median set-up")
	rp.set("scenario.instantiate_us", ss(func(st setupTimes) time.Duration { return st.instantiate }, 1e3), "all patterns and workers, median set-up")
	rp.set("sim.new_ms", ss(func(st setupTimes) time.Duration { return st.newEngine }, 1e6), "both families and workers, median set-up")
	rp.set("control.decide_ns", float64(tr.decide.Nanoseconds())/float64(max(tr.rounds, 1)), "per DecideAll round, UTIL-BP cells")
	rp.set("control.rounds", float64(tr.rounds)/passes, "DecideAll rounds per sweep")
	rp.set("control.full_rounds", float64(tr.fullRounds)/passes, "AllChanged rounds per sweep")
	rp.set("control.changed_frac", float64(tr.changedLinks)/float64(max(tr.seenLinks, 1)), "changed links / links decided over")
	rp.set("trace_overhead_pct", (median(tracedWalls)/median(walls)-1)*100,
		fmt.Sprintf("%d traced closed loops vs %d TableIIIMultiSeed runs, interleaved", len(tracedWalls), len(walls)))
	tr.merge(pm.tr)
	return rp, tr, nil
}
