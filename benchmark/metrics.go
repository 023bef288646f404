package main

// metricDef names a reported metric and its unit. The two lists below
// are the metrics BENCHMARK.json declares; a test keeps them in step.
type metricDef struct {
	name, unit  string
	lowerBetter bool
	// bound, for an end-to-end metric, is the share of the baseline
	// median by which it may worsen before a change counts as a
	// regression.
	bound float64
}

// boundOf returns an end-to-end metric's bound.
func boundOf(name string) float64 {
	for _, d := range endToEnd {
		if d.name == name {
			return d.bound
		}
	}
	panic("no end-to-end metric " + name)
}

// endToEnd is what a user of the simulator sees; an untraced run
// reports every one of them on every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", lowerBetter: true, bound: 0.25},
	{name: "wall_s", unit: "s", lowerBetter: true, bound: 0.25},
	{name: "loaded_step_us.p50", unit: "us", lowerBetter: true, bound: 0.25},
	{name: "loaded_step_us.p90", unit: "us", lowerBetter: true, bound: 0.25},
	{name: "drained_step_us.p50", unit: "us", lowerBetter: true, bound: 0.25},
	{name: "heap_mb", unit: "MB", lowerBetter: true, bound: 0.1},
	{name: "checkpoint_ms.p50", unit: "ms", lowerBetter: true, bound: 0.25},
	{name: "snapshot_mb", unit: "MB", lowerBetter: true, bound: 0.1},
	{name: "mean_wait_s", unit: "s", lowerBetter: true, bound: 0.25},
}

// perLayer is what a traced run reports, per module of the simulator.
var perLayer = []metricDef{
	{name: "experiment.cells", unit: "count", lowerBetter: true},
	{name: "experiment.cell_ms.p50", unit: "ms", lowerBetter: true},
	{name: "experiment.cell_ms.p90", unit: "ms", lowerBetter: true},
	{name: "experiment.parallel_eff", unit: "ratio"},
	{name: "scenario.build_artifact_ms", unit: "ms", lowerBetter: true},
	{name: "scenario.instantiate_us", unit: "us", lowerBetter: true},
	{name: "sim.new_ms", unit: "ms", lowerBetter: true},
	{name: "sim.reset_us", unit: "us", lowerBetter: true},
	{name: "sim.clock_floor_ns", unit: "ns", lowerBetter: true},
	{name: "sim.events_ns.loaded", unit: "ns", lowerBetter: true},
	{name: "sim.sense_ns.loaded", unit: "ns", lowerBetter: true},
	{name: "sim.control_ns.loaded", unit: "ns", lowerBetter: true},
	{name: "sim.serve_ns.loaded", unit: "ns", lowerBetter: true},
	{name: "sim.travel_ns.loaded", unit: "ns", lowerBetter: true},
	{name: "sim.arrivals_ns.loaded", unit: "ns", lowerBetter: true},
	{name: "sim.events_ns.drained", unit: "ns", lowerBetter: true},
	{name: "sim.sense_ns.drained", unit: "ns", lowerBetter: true},
	{name: "sim.control_ns.drained", unit: "ns", lowerBetter: true},
	{name: "sim.serve_ns.drained", unit: "ns", lowerBetter: true},
	{name: "sim.travel_ns.drained", unit: "ns", lowerBetter: true},
	{name: "sim.arrivals_ns.drained", unit: "ns", lowerBetter: true},
	{name: "sim.split_ratio", unit: "ratio", lowerBetter: true},
	{name: "sim.spawned_per_step", unit: "1/step", lowerBetter: true},
	{name: "sim.served_per_step", unit: "1/step"},
	{name: "sim.exited_per_step", unit: "1/step"},
	{name: "control.decide_ns", unit: "ns", lowerBetter: true},
	{name: "control.rounds", unit: "count", lowerBetter: true},
	{name: "control.full_rounds", unit: "count", lowerBetter: true},
	{name: "control.changed_frac", unit: "ratio", lowerBetter: true},
	{name: "sensing.links_per_step", unit: "1/step", lowerBetter: true},
	{name: "sensing.link_ns", unit: "ns", lowerBetter: true},
	{name: "event.transitions", unit: "count", lowerBetter: true},
	{name: "vehicle.arena_rows", unit: "count", lowerBetter: true},
	{name: "vehicle.live_frac", unit: "ratio"},
	{name: "snap.capture_us.p50", unit: "us", lowerBetter: true},
	{name: "snap.restore_us.p50", unit: "us", lowerBetter: true},
	{name: "snap.bytes", unit: "B", lowerBetter: true},
	{name: "snap.bytes_per_live_vehicle", unit: "B", lowerBetter: true},
	{name: "telemetry.flush_ns", unit: "ns", lowerBetter: true},
	{name: "stats.summarize_ms", unit: "ms", lowerBetter: true},
	{name: "runtime.allocs_per_step", unit: "1/step", lowerBetter: true},
	{name: "runtime.bytes_per_step", unit: "B/step", lowerBetter: true},
	{name: "runtime.gc_cycles", unit: "count", lowerBetter: true},
	{name: "trace_overhead_pct", unit: "%", lowerBetter: true},
}

// printedOnly are printed with their unit but kept out of the result
// line: improvement_pct exists only on the sweep, and the result line
// must carry the same metrics on every workload.
var printedOnly = []metricDef{
	{name: "improvement_pct", unit: "%"},
}
