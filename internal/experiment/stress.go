package experiment

import (
	"fmt"
	"strings"

	"utilbp/internal/scenario"
)

// DefaultStressAreas returns the canonical area-incident severity axis
// in junction-neighborhood sizes k (a k×k block of junctions loses
// every approach): 0 is the undisrupted reference, 1 a single starved
// junction, 3 a whole district. On the paper's 3×3 grid k = 3 closes
// the entire network mid-run — the graceful-degradation endpoint.
func DefaultStressAreas() []int { return []int{0, 1, 3} }

// DefaultStressDemandScales returns the demand axis of the stress
// study: the paper's operating point and a 1.3× overload, so each
// degradation curve is read both below and above saturation.
func DefaultStressDemandScales() []float64 { return []float64{1, 1.3} }

// DefaultStressCapFrac is the residual capacity of every road inside a
// stressed area — near-closure, because the paper's W = 120 storage
// bound leaves so much headroom that milder clamps never bind (see
// DefaultCapFracs); the area size k stays the severity axis.
const DefaultStressCapFrac = 0.05

// StressStats aggregates one (controller family × area size × demand
// scale) row of the stress study across seeds: how throughput and
// queuing degrade as an area incident grows and demand climbs past the
// operating point.
type StressStats struct {
	// Family is the controller family of this row.
	Family ControllerFamily
	// AreaK is the incident severity: the k of the k×k junction
	// neighborhood whose approaches are clamped (0 = undisrupted
	// reference).
	AreaK int
	// DemandScale is the arrival-rate multiplier of this row.
	DemandScale float64
	// MeanWaits and Throughputs are the per-seed network-mean queuing
	// times and exited-vehicle counts, in the sweep's seed order.
	MeanWaits   []float64
	Throughputs []float64
	// Mean and Std summarize MeanWaits; MeanThroughput summarizes
	// Throughputs.
	Mean, Std      float64
	MeanThroughput float64
	// DegradationPct is the mean per-seed wait increase relative to the
	// same family's AreaK = 0 row at the same demand scale, in percent;
	// zero when the area axis carries no undisrupted reference.
	DegradationPct float64
}

// StressSweep runs the area-incident stress study: every controller
// family of RobustnessFamilies across the area-size axis (k×k junction
// neighborhoods losing their approaches mid-run) crossed with the
// demand-scale axis and the seeds — the graceful-degradation surface
// of DESIGN.md §14. Each area size is the base setup plus a k×k area
// incident anchored at the loaded top-right corner
// (scenario.WithCornerAreaIncident) spanning the middle half of the
// horizon at DefaultStressCapFrac residual capacity, crossed with the
// demand scales; area 0 keeps the base events untouched, so the
// degradation baseline is the undisrupted run at the same demand.
// Cells run on the pooled sweep scheduler with one shared
// ArtifactCache and one per-worker EngineCache per (area, scale) pair.
// Results are bit-for-bit identical to the serial form
// (TestStressSweepPooledMatchesSerial).
func StressSweep(base scenario.Setup, pattern scenario.Pattern, areas []int, scales []float64, seeds []uint64, durationSec float64) ([]StressStats, error) {
	return stressSweep(pooled, base, pattern, areas, scales, seeds, durationSec)
}

func stressSweep(form schedule, base scenario.Setup, pattern scenario.Pattern, areas []int, scales []float64, seeds []uint64, durationSec float64) ([]StressStats, error) {
	plan, err := newFamilyPlan(pattern, seeds, durationSec)
	if err != nil {
		return nil, err
	}
	if len(areas) == 0 {
		areas = DefaultStressAreas()
	}
	if len(scales) == 0 {
		scales = DefaultStressDemandScales()
	}
	if durationSec <= 0 {
		durationSec = pattern.Duration()
	}
	baseline := -1
	for ai, k := range areas {
		for _, scale := range scales {
			setup := base
			if k > 0 {
				if setup, err = base.WithCornerAreaIncident(k, durationSec/4, durationSec/2, DefaultStressCapFrac); err != nil {
					return nil, err
				}
			}
			setup.DemandScale = scale
			plan.setups = append(plan.setups, setup)
		}
		if k == 0 && baseline < 0 {
			baseline = ai
		}
	}
	res, err := engineSweep(form, plan.setups, plan.cells(), plan.cell)
	if err != nil {
		return nil, err
	}
	out := make([]StressStats, 0, len(plan.families)*len(areas)*len(scales))
	for fi, family := range plan.families {
		for ai, k := range areas {
			for si, scale := range scales {
				ref := -1
				if baseline >= 0 {
					ref = baseline*len(scales) + si
				}
				r := plan.row(res, fi, ai*len(scales)+si, ref)
				out = append(out, StressStats{
					Family:         family,
					AreaK:          k,
					DemandScale:    scale,
					MeanWaits:      r.waits,
					Throughputs:    r.throughputs,
					Mean:           r.mean,
					Std:            r.std,
					MeanThroughput: r.thr,
					DegradationPct: r.deg,
				})
			}
		}
	}
	return out, nil
}

// FormatStressStats renders the stress-study table.
func FormatStressStats(rows []StressStats, seeds []uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Throughput and queuing under area incidents, %d seeds\n", len(seeds))
	fmt.Fprintf(&b, "%-10s %-8s %-8s %-20s %-12s %s\n", "Family", "area", "demand", "wait mean ± std (s)", "throughput", "vs intact")
	for _, r := range rows {
		area := "none"
		if r.AreaK > 0 {
			area = fmt.Sprintf("%dx%d", r.AreaK, r.AreaK)
		}
		fmt.Fprintf(&b, "%-10s %-8s %-8s %-20s %-12.0f %+.1f%%\n",
			r.Family,
			area,
			fmt.Sprintf("%.2fx", r.DemandScale),
			fmt.Sprintf("%.1f ± %.1f", r.Mean, r.Std),
			r.MeanThroughput,
			r.DegradationPct)
	}
	return b.String()
}
