package main

import (
	"fmt"
	"time"

	"utilbp/internal/experiment"
	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
	"utilbp/internal/signal"
)

// workers is the sweep's width and the process's GOMAXPROCS: the
// benchmark box has two cores, and load comes from one process.
const workers = 2

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"table3-sweep", "city-drain", "city-incident-cv"}

// deriveSeeds returns n seeds derived from a run's --seed, spaced so
// that runs with different --seed values never share one (n <= 16).
func deriveSeeds(seed uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = seed*16 + uint64(i)
	}
	return seeds
}

// runSeeds are the seeds a single-engine run cycles through, so a
// run's figures average over several demand realizations instead of
// resting on one.
func runSeeds(seed uint64) []uint64 { return deriveSeeds(seed, 3) }

// newSweep is the Table III sweep over four seeds at the paper's
// horizons, CAP-BP at every 10 s period from 10 to 80 s.
func newSweep(seed uint64) *sweepWorkload {
	return &sweepWorkload{
		setup:    scenario.Default(),
		patterns: scenario.AllPatterns,
		periods:  experiment.CoarsePeriods(),
		seeds:    deriveSeeds(seed, 4),
		workers:  workers,
	}
}

// newProbe is the single paper-grid engine the sweep workload steps for
// its per-step, drain and checkpoint figures: UTIL-BP under the 4 h
// mixed pattern, then drained.
func newProbe(seed uint64) *engineWorkload {
	setup := scenario.Default()
	setup.Seed = seed
	return &engineWorkload{
		setup:      setup,
		pattern:    scenario.PatternMixed,
		controller: scenario.Setup.UtilBP,
		loadSteps:  4 * 3600,
		drainLimit: 3600,
		tailSteps:  24000,
		window:     2400,
		ckAtCutoff: 5,
	}
}

// newEngineWorkload returns the city workloads.
func newEngineWorkload(name string, seed uint64) (*engineWorkload, error) {
	switch name {
	case "city-drain":
		reg, _ := scenario.WorkloadByName("city-grid")
		setup := reg.Setup
		setup.Seed = seed
		return &engineWorkload{
			setup:      setup,
			pattern:    reg.Pattern,
			controller: scenario.Setup.UtilBP,
			loadSteps:  2 * 3600,
			drainLimit: 3600,
			tailSteps:  6000,
			window:     120,
			ckAtCutoff: 5,
		}, nil
	case "city-incident-cv":
		reg, _ := scenario.WorkloadByName("city-grid-incident")
		const horizon = 1800
		setup := reg.Setup
		setup.Seed = seed
		setup.Sensor = sensing.CV(0.3)
		// The registered disruptions fit a 300 s sweep horizon; stretch
		// them over this run's horizon so each phase lasts long enough
		// to load the sensor and estimator.
		stretch := horizon / reg.SweepHorizon(horizon)
		setup.Events = append(setup.Events[:0:0], setup.Events...)
		for i := range setup.Events {
			setup.Events[i].T0 *= stretch
			setup.Events[i].Dur *= stretch
		}
		return &engineWorkload{
			setup:      setup,
			pattern:    reg.Pattern,
			controller: func(s scenario.Setup) signal.Factory { return s.EstimatedBP(0) },
			loadSteps:  horizon,
			drainLimit: 3600,
			tailSteps:  3000,
			window:     60,
			ckEvery:    300,
			telemetry:  true,
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// runConfig carries the command-line run parameters.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	// minReps is the fewest untraced runs a single-engine measurement
	// makes, however short --seconds is; twice the run's seeds, so every
	// seed's final state is compared at least once.
	minReps int
	// setupReps is how many times set-up is timed.
	setupReps int
	// tamper, when set, may modify a snapshot or digest before it is
	// checked. Only tests set it, to show a corrupted one is caught.
	tamper func(what string, b []byte)
}

func (c runConfig) budget(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}
