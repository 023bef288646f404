package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
	"utilbp/internal/stats"
	"utilbp/internal/telemetry"
)

// engineWorkload is one engine stepping a scenario through three
// phases: a loaded phase that ends at a demand cutoff
// (sim.CutoffDemand), a drain until the network is empty or quiescent,
// and a tail of drained steps. Time is measured per fixed window of steps. Checkpoints
// (Snapshot on the engine, Restore into a second engine) are taken
// every ckEvery steps, or ckAtCutoff times at the cutoff when ckEvery
// is zero, and count toward the run's wall time.
type engineWorkload struct {
	setup      scenario.Setup
	pattern    scenario.Pattern
	controller func(scenario.Setup) signal.Factory
	loadSteps  int
	drainLimit int // the drain fails if the network is not empty by then
	tailSteps  int
	window     int
	ckEvery    int
	ckAtCutoff int
	telemetry  bool
}

// rig is a built engine with the per-run collaborators it was built
// from, so a rep can rewind it the way the sweep's engine cache does.
type rig struct {
	inst    *scenario.Instance
	demand  *sim.CutoffDemand
	factory signal.Factory
	sensor  sensing.Sensor
	engine  *sim.Engine
}

type setupTimes struct{ artifact, instantiate, newEngine time.Duration }

func (s setupTimes) total() time.Duration { return s.artifact + s.instantiate + s.newEngine }

// build runs the workload's set-up from scratch: scenario artifact,
// per-run instance, engine (and the telemetry recorder when asked).
func (w *engineWorkload) build(withTelemetry bool) (*rig, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	art, err := w.setup.BuildArtifact(w.pattern)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	inst := art.Instantiate()
	t2 := time.Now()
	r := &rig{
		inst:    inst,
		demand:  &sim.CutoffDemand{Inner: inst.Demand, CutoffStep: w.loadSteps},
		factory: w.controller(inst.Setup),
		sensor:  inst.Sensor,
	}
	r.engine, err = sim.New(sim.Config{
		Net:              inst.Grid.Network,
		Controllers:      r.factory,
		Demand:           r.demand,
		Router:           inst.Router,
		Routes:           inst.Routes,
		Sensor:           r.sensor,
		Control:          inst.Setup.Control,
		Events:           inst.Events,
		ExpectedVehicles: art.ExpectedVehicles(float64(w.loadSteps)),
	})
	if err != nil {
		return nil, st, err
	}
	if withTelemetry {
		rec, err := telemetry.NewRecorder(telemetry.Net(), w.loadSteps+w.drainLimit+w.tailSteps)
		if err != nil {
			return nil, st, err
		}
		if err := r.engine.InstallTelemetry(rec); err != nil {
			return nil, st, err
		}
	}
	t3 := time.Now()
	return r, setupTimes{artifact: t1.Sub(t0), instantiate: t2.Sub(t1), newEngine: t3.Sub(t2)}, nil
}

// reset rewinds the rig for a seed with the options the sweep's engine
// cache passes, swapping in traced or plain collaborators.
func (r *rig) reset(seed uint64, tr *tracer) (time.Duration, error) {
	sensor := traceSensor(r.sensor, tr)
	start := time.Now()
	err := r.engine.ResetWith(seed, sim.ResetOptions{
		Controllers: traceFactory(r.factory, tr),
		Demand:      r.demand,
		Router:      r.inst.Router,
		Routes:      r.inst.Routes,
		Sensor:      sensor,
		ClearSensor: sensor == nil,
		Control:     r.inst.Setup.Control,
		SetControl:  true,
		Events:      r.inst.Events,
		ClearEvents: r.inst.Events == nil,
	})
	return time.Since(start), err
}

// quietSteps is how long no vehicle may be served anywhere before a
// network that still holds vehicles counts as quiescent: far longer
// than any road's travel time, so the remaining vehicles are queued
// where no controller will ever serve them. Under partial observation
// (connected-vehicle sensing) a queue without a connected vehicle is
// invisible, so some runs end this way instead of empty.
const quietSteps = 300

// quiescent reports whether the network is empty, or has served no
// vehicle for quietSteps; served and quietSince carry the state between
// calls.
func quiescent(e *sim.Engine, served *int, quietSince *int) bool {
	t := e.Totals()
	if t.Exited == t.Spawned {
		return true
	}
	if t.Served != *served {
		*served, *quietSince = t.Served, e.Step()
	}
	return e.Step()-*quietSince >= quietSteps
}

// repResult is what one run of the workload measured.
type repResult struct {
	wall, reset     time.Duration
	loaded, drained []float64 // µs per step, one value per window
	ckCapture       []float64 // µs
	ckRestore       []float64 // µs
	ckBytes         int
	ckLive          int
	ckStep          int
	finalStep       int
	finalHash       [32]byte
	meanWait        float64
	summarize       time.Duration
	invariants      error
	// ptLoaded and ptDrained split the loaded and drained windows by
	// substep; only a traced run fills them.
	ptLoaded, ptDrained     sim.PhaseTimings
	spawned, served, exited int // over the loaded phase
	rows, live              int // arena rows and live vehicles at the cutoff
	transitions             int
	mem                     memCounters
}

// rep runs the workload once on r, checkpointing into target. With a
// tracer it steps through RunTimed and records spans and counters.
func (w *engineWorkload) rep(r, target *rig, seed uint64, tr *tracer, tamper func(string, []byte)) (repResult, error) {
	var res repResult
	var err error
	if res.reset, err = r.reset(seed, tr); err != nil {
		return res, err
	}
	e := r.engine
	runtime.GC()
	m0 := readMem()
	runSpan := tr.begin("run")
	start := time.Now()

	window := func(kind string) float64 {
		n := w.window
		sp := tr.begin("window." + kind)
		t0 := time.Now()
		if tr != nil {
			pt := &sim.PhaseTimings{} // drain windows are in neither split
			switch kind {
			case "loaded":
				pt = &res.ptLoaded
			case "drained":
				pt = &res.ptDrained
			}
			e.RunTimed(n, pt) // RunTimed adds to pt
		} else {
			e.Run(n)
		}
		d := time.Since(t0)
		tr.end(sp)
		return float64(d.Nanoseconds()) / 1e3 / float64(n)
	}
	checkpoint := func() error {
		sp := tr.begin("checkpoint")
		c0 := time.Now()
		data := e.Snapshot()
		c1 := time.Now()
		err := target.engine.Restore(data)
		c2 := time.Now()
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("restore checkpoint at step %d: %w", e.Step(), err)
		}
		t := e.Totals()
		res.ckCapture = append(res.ckCapture, us(c1.Sub(c0)))
		res.ckRestore = append(res.ckRestore, us(c2.Sub(c1)))
		res.ckBytes, res.ckLive, res.ckStep = len(data), t.Spawned-t.Exited, e.Step()
		return nil
	}
	due := func() bool { return w.ckEvery > 0 && e.Step()%w.ckEvery == 0 }

	for e.Step() < w.loadSteps {
		res.loaded = append(res.loaded, window("loaded"))
		if due() {
			if err := checkpoint(); err != nil {
				return res, err
			}
		}
	}
	t := e.Totals()
	res.spawned, res.served, res.exited = t.Spawned, t.Served, t.Exited
	res.rows, res.live = e.Arena().Len(), t.Spawned-t.Exited
	if w.ckEvery == 0 {
		for i := 0; i < w.ckAtCutoff; i++ {
			if err := checkpoint(); err != nil {
				return res, err
			}
		}
	}
	served, quietSince := e.Totals().Served, e.Step()
	for !quiescent(e, &served, &quietSince) {
		if e.Step()-w.loadSteps >= w.drainLimit {
			return res, fmt.Errorf("network neither empty nor quiescent %d steps after the demand cutoff", w.drainLimit)
		}
		window("drain")
		if due() {
			if err := checkpoint(); err != nil {
				return res, err
			}
		}
	}
	for i := 0; i < w.tailSteps/w.window; i++ {
		res.drained = append(res.drained, window("drained"))
		if due() {
			if err := checkpoint(); err != nil {
				return res, err
			}
		}
	}
	res.wall = time.Since(start)
	res.mem = readMem().since(m0)
	tr.end(runSpan)
	res.finalStep = e.Step()
	for _, tn := range r.inst.Events.Transitions() {
		if int(tn.Step) < res.finalStep {
			res.transitions++
		}
	}
	final := e.Snapshot()
	if tamper != nil {
		tamper("snapshot", final)
	}
	res.finalHash = sha256.Sum256(final)
	e.FinalizeWaits()
	res.invariants = e.CheckInvariants()
	s0 := time.Now()
	sum := stats.SummarizeArena(e.Arena())
	res.summarize = time.Since(s0)
	res.meanWait = sum.MeanWait
	return res, nil
}

// pairedFlush steps r and twin in lockstep through a whole run, timing
// each window on both, and returns the median per-step difference in ns
// over the drained windows, where step time is smallest and steadiest.
// r carries the workload's telemetry recorder (if it has one) and twin
// none, so the difference is the recorder's flush cost; without a
// recorder it is the pairing's noise floor. It also reports whether both
// engines end the run in identical state, which shows the recorder only
// observes.
func (w *engineWorkload) pairedFlush(r, twin *rig, seed uint64) (float64, bool, error) {
	if _, err := r.reset(seed, nil); err != nil {
		return 0, false, err
	}
	if _, err := twin.reset(seed, nil); err != nil {
		return 0, false, err
	}
	runtime.GC()
	timeWindow := func(e *sim.Engine) float64 {
		t0 := time.Now()
		e.Run(w.window)
		return float64(time.Since(t0).Nanoseconds())
	}
	windows := 0
	pair := func() float64 {
		var a, b float64
		if windows%2 == 0 {
			a, b = timeWindow(r.engine), timeWindow(twin.engine)
		} else {
			b, a = timeWindow(twin.engine), timeWindow(r.engine)
		}
		windows++
		return (a - b) / float64(w.window)
	}
	for r.engine.Step() < w.loadSteps {
		pair()
	}
	served, quietSince := r.engine.Totals().Served, r.engine.Step()
	for !quiescent(r.engine, &served, &quietSince) {
		if r.engine.Step()-w.loadSteps >= w.drainLimit {
			return 0, false, fmt.Errorf("network neither empty nor quiescent %d steps after the demand cutoff", w.drainLimit)
		}
		pair()
	}
	var diffs []float64
	for i := 0; i < w.tailSteps/w.window; i++ {
		diffs = append(diffs, pair())
	}
	same := sha256.Sum256(r.engine.Snapshot()) == sha256.Sum256(twin.engine.Snapshot())
	return median(diffs), same, nil
}
