package experiment

import (
	"reflect"
	"testing"

	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
)

// sweepScale keeps sensing-sweep tests minutes-free: a short horizon
// still exercises warm queues and every sensor model.
const sensingTestHorizon = 400

// TestSensingSweepPooledMatchesSerial pins the sensing determinism
// contract: the pooled scheduler — shared artifacts, per-worker engine
// caches, per-cell sensor swaps through ResetWith — must reproduce the
// serial fresh-engine reference bit-for-bit, sensor state included.
func TestSensingSweepPooledMatchesSerial(t *testing.T) {
	base := scenario.Default()
	specs := []sensing.Spec{
		{},
		sensing.Loop(),
		{Kind: sensing.KindLoop, Saturation: 30, FailProb: 0.05},
		sensing.CV(0.5),
		{Kind: sensing.KindConnectedVehicle, Rate: 0.2, NoiseStd: 1.5, LatencySteps: 3},
	}
	seeds := []uint64{1, 2}
	pooled, err := SensingSweep(base, scenario.PatternII, specs, seeds, sensingTestHorizon)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := sensingSweep(serial, base, scenario.PatternII, specs, seeds, sensingTestHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pooled, serial) {
		t.Fatalf("pooled sensing sweep diverges from serial reference:\npooled: %+v\nserial: %+v", pooled, serial)
	}
}

// TestPenetrationSweepReproducible pins the acceptance criterion: the
// connected-vehicle penetration sweep on the paper grid is a pure
// function of its seeds — two invocations agree exactly, and per-seed
// waits differ across seeds (the sweep actually exercises them).
func TestPenetrationSweepReproducible(t *testing.T) {
	base := scenario.Default()
	rates := []float64{0.1, 0.5, 1.0}
	seeds := []uint64{3, 4}
	first, err := PenetrationSweep(base, scenario.PatternII, rates, seeds, sensingTestHorizon)
	if err != nil {
		t.Fatal(err)
	}
	second, err := PenetrationSweep(base, scenario.PatternII, rates, seeds, sensingTestHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("penetration sweep is not reproducible:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if len(first) != len(rates)+1 {
		t.Fatalf("rows = %d, want %d (perfect + rates)", len(first), len(rates)+1)
	}
	if !first[0].Spec.Perfect() {
		t.Fatalf("first row should be the perfect reference, got %v", first[0].Spec)
	}
	if first[0].DegradationPct != 0 {
		t.Fatalf("perfect reference degradation = %v, want 0", first[0].DegradationPct)
	}
	for _, row := range first {
		if len(row.MeanWaits) != len(seeds) {
			t.Fatalf("row %v has %d waits, want %d", row.Spec, len(row.MeanWaits), len(seeds))
		}
		if row.Mean <= 0 {
			t.Fatalf("row %v mean wait %v", row.Spec, row.Mean)
		}
	}
	if first[0].MeanWaits[0] == first[0].MeanWaits[1] {
		t.Fatal("different seeds produced identical waits; the seed axis is dead")
	}
}

// TestSensingSweepSensorMatters checks the sweep measures something: a
// heavily degraded sensor (tiny penetration, loud noise, long latency)
// must not report exactly the perfect reference on every seed.
func TestSensingSweepSensorMatters(t *testing.T) {
	base := scenario.Default()
	specs := []sensing.Spec{
		{},
		{Kind: sensing.KindConnectedVehicle, Rate: 0.05, NoiseStd: 4, LatencySteps: 10},
	}
	seeds := []uint64{5}
	rows, err := SensingSweep(base, scenario.PatternII, specs, seeds, sensingTestHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Mean == rows[1].Mean {
		t.Fatalf("degraded sensor indistinguishable from perfect: %+v", rows)
	}
}

// TestSensingSweepValidatesSpecs rejects malformed axes up front.
func TestSensingSweepValidatesSpecs(t *testing.T) {
	base := scenario.Default()
	if _, err := SensingSweep(base, scenario.PatternII, []sensing.Spec{sensing.CV(2)}, []uint64{1}, 60); err == nil {
		t.Fatal("invalid penetration rate accepted")
	}
	if _, err := SensingSweep(base, scenario.PatternII, nil, []uint64{1}, 60); err == nil {
		t.Fatal("empty spec axis accepted")
	}
	if _, err := SensingSweep(base, scenario.PatternII, []sensing.Spec{{}}, nil, 60); err == nil {
		t.Fatal("empty seed axis accepted")
	}
}

// TestEngineCacheRunSensorIsolation pins that a sensing cell cannot
// leak its sensor into a later perfect cell on the same cached engine:
// Run after RunSensor must match a fresh perfect-observation run.
func TestEngineCacheRunSensorIsolation(t *testing.T) {
	base := scenario.Default()
	cache := NewEngineCache(base)
	setup := base
	setup.Seed = 7
	factory := setup.UtilBP()

	sensor, err := sensing.CV(0.3).New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cache.RunSensor(scenario.PatternII, FamilyUtilBP, factory, sensor, 7, sensingTestHorizon); err != nil {
		t.Fatal(err)
	}
	cached, err := cache.Run(scenario.PatternII, FamilyUtilBP, factory, 7, sensingTestHorizon)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(Spec{Setup: setup, Pattern: scenario.PatternII, Factory: factory, DurationSec: sensingTestHorizon})
	if err != nil {
		t.Fatal(err)
	}
	if cached.Summary != fresh.Summary || cached.Totals != fresh.Totals {
		t.Fatalf("sensor leaked into a perfect cell:\ncached: %+v %+v\nfresh:  %+v %+v",
			cached.Summary, cached.Totals, fresh.Summary, fresh.Totals)
	}
}
