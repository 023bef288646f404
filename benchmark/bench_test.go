package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
	"utilbp/internal/signal"
	"utilbp/internal/snap"
)

// smallEngine shrinks a city workload to a few hundred steps.
func smallEngine(t *testing.T, name string) *engineWorkload {
	t.Helper()
	w, err := newEngineWorkload(name, 3)
	if err != nil {
		t.Fatal(err)
	}
	w.loadSteps = 10 * w.window
	w.tailSteps = 2 * w.window
	if w.ckEvery > 0 {
		w.ckEvery = 5 * w.window
	}
	return w
}

// smallSweep shrinks the sweep to one seed, short horizons and a short
// probe.
func smallSweep() (*sweepWorkload, *engineWorkload) {
	s := newSweep(3)
	s.seeds = s.seeds[:1]
	s.periods = s.periods[:3]
	s.durationSec = 300
	p := newProbe(3)
	p.loadSteps = 3 * p.window
	p.tailSteps = p.window
	return s, p
}

func smallConfig(trace bool) runConfig {
	return runConfig{seed: 3, seconds: 0.001, trace: trace, minReps: 6, setupReps: 2}
}

// run runs a shrunk workload and returns its parsed result line.
func run(t *testing.T, name string, cfg runConfig) result {
	t.Helper()
	var rp *report
	var err error
	if name == "table3-sweep" {
		s, p := smallSweep()
		rp, _, err = runSweep(s, p, cfg)
	} else {
		rp, _, err = runEngine(smallEngine(t, name), cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, err := rp.finish(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return res
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			res := run(t, name, smallConfig(trace))
			// Under the race detector the traced run's timing checks fail.
			raceSkewsTiming := trace && raceEnabled
			if (!res.Correct || res.Failed != 0) && !raceSkewsTiming || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", name, trace, d.name, m.Unit, d.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

// flipOnce corrupts the first snapshot or digest it is handed.
func flipOnce(what string) func(string, []byte) {
	done := false
	return func(kind string, b []byte) {
		if kind == what && !done && len(b) > 0 {
			b[len(b)-1] ^= 1
			done = true
		}
	}
}

func TestCorruptedSnapshotIsAFailure(t *testing.T) {
	cfg := smallConfig(false)
	cfg.tamper = flipOnce("snapshot")
	res := run(t, "city-drain", cfg)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted snapshot not counted: %+v", res)
	}
}

func TestCorruptedDigestIsAFailure(t *testing.T) {
	cfg := smallConfig(false)
	cfg.tamper = flipOnce("digest")
	res := run(t, "table3-sweep", cfg)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted digest not counted: %+v", res)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric lists
// the benchmark reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(def.Workloads), len(workloadNames))
	}
	for i, w := range def.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	if len(def.EndToEnd) != len(endToEnd) || len(def.PerLayer) != len(perLayer) {
		t.Fatalf("%d/%d metrics, want %d/%d", len(def.EndToEnd), len(def.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range def.EndToEnd {
		d := endToEnd[i]
		better := map[bool]string{true: "lower", false: "higher"}[d.lowerBetter]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, m, d)
		}
	}
	for i, m := range def.PerLayer {
		d := perLayer[i]
		better := map[bool]string{true: "lower", false: "higher"}[d.lowerBetter]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, m, d)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	cases := []struct {
		name        string
		new         []float64
		lowerBetter bool
		want        string
	}{
		{"same", base, true, "within bound"},
		{"slower", shift(base, 1.3), true, "REGRESSION"},
		{"faster", shift(base, 0.8), true, "better"},
		{"higher is better", shift(base, 0.7), false, "REGRESSION"},
		{"noisy", []float64{50, 150, 60, 140, 100, 70, 130, 100, 90, 110}, true, "unresolved"},
	}
	for _, c := range cases {
		if got := compareValues(base, c.new, c.lowerBetter, 0.2).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestWrappersForwardOptionalInterfaces checks the traced wrappers keep
// every interface the engine type-asserts, so a traced engine runs the
// same program.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tr := &tracer{}
	setup := scenario.Default()
	for _, f := range []signal.Factory{setup.UtilBP(), setup.EstimatedBP(0)} {
		wrapped := traceFactory(f, tr)
		bf, ok := wrapped.(signal.BatchFactory)
		if !ok {
			t.Fatalf("%s: wrapped factory lost BatchFactory", f.Name())
		}
		if wrapped.Name() != f.Name() {
			t.Errorf("wrapped name %q, want %q", wrapped.Name(), f.Name())
		}
		infos := []signal.JunctionInfo{{Label: "J", Phases: [][]int{{0}}, NumLinks: 1, WStar: 10, DeltaT: 1}}
		bc, err := bf.NewBatch(infos)
		if err != nil {
			t.Fatal(err)
		}
		inner, err := f.(signal.BatchFactory).NewBatch(infos)
		if err != nil {
			t.Fatal(err)
		}
		_, innerSnap := inner.(snap.Snapshotter)
		if _, ok := bc.(snap.Snapshotter); ok != innerSnap {
			t.Errorf("%s: wrapped batch Snapshotter %v, inner %v", f.Name(), ok, innerSnap)
		}
	}
	if _, wrapped := traceFactory(setup.CapBP(30), tr).(tracedFactory); wrapped {
		t.Error("a per-junction factory should pass through unwrapped")
	}
	s, err := sensing.CV(0.3).New()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := traceSensor(s, tr).(snap.Snapshotter); !ok {
		t.Error("wrapped sensor lost Snapshotter")
	}
	if traceSensor(nil, tr) != nil {
		t.Error("no sensor must stay no sensor")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := percentile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}
