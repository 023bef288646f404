package experiment

import (
	"fmt"
	"strings"

	"utilbp/internal/analysis"
	"utilbp/internal/scenario"
)

// SeedStats aggregates one Table III row over multiple seeds.
type SeedStats struct {
	Pattern scenario.Pattern
	// Improvements are per-seed improvement percentages; Mean and Std
	// summarize them.
	Improvements []float64
	Mean, Std    float64
	// Wins counts seeds where UTIL-BP beat CAP-BP's best period.
	Wins int
}

// sweepPlan enumerates every independent cell of the Table III sweep:
// for each (pattern, seed) group, one CAP-BP run per period followed by
// one UTIL-BP run. Cells are identified by a flat index, so results land
// in cell-indexed slots and aggregation stays in deterministic (pattern,
// seed, period) order no matter which worker finishes when. The
// one-seed plan is the paper's Table III, and the first len(periods)
// cells of a one-pattern, one-seed plan are its CAP-BP period sweep.
type sweepPlan struct {
	base        scenario.Setup
	patterns    []scenario.Pattern
	periods     []int
	seeds       []uint64
	durationSec float64
}

func newSweepPlan(base scenario.Setup, patterns []scenario.Pattern, periods []int, seeds []uint64, durationSec float64) (*sweepPlan, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiment: at least one seed required")
	}
	if patterns == nil {
		patterns = scenario.AllPatterns
	}
	if len(periods) == 0 {
		periods = DefaultPeriods()
	}
	for _, p := range periods {
		if p <= 0 {
			return nil, fmt.Errorf("experiment: CAP-BP period %d must be positive", p)
		}
	}
	return &sweepPlan{base: base, patterns: patterns, periods: periods, seeds: seeds, durationSec: durationSec}, nil
}

// perGroup returns the number of cells in one (pattern, seed) group: the
// CAP-BP period sweep plus the UTIL-BP run.
func (p *sweepPlan) perGroup() int { return len(p.periods) + 1 }

// cells returns the total cell count.
func (p *sweepPlan) cells() int { return len(p.patterns) * len(p.seeds) * p.perGroup() }

// cell describes a flat cell index: job < len(periods) of its group
// selects CAP-BP at periods[job], the last job the UTIL-BP run.
func (p *sweepPlan) cell(idx int) engineCell {
	job, group := idx%p.perGroup(), idx/p.perGroup()
	pattern := p.patterns[group/len(p.seeds)]
	setup := p.base
	setup.Seed = p.seeds[group%len(p.seeds)]
	ctl := scenario.ControllerSpec{Kind: scenario.ControllerUtil}
	if job < len(p.periods) {
		ctl = scenario.ControllerSpec{Kind: scenario.ControllerCap, PeriodSec: p.periods[job]}
	}
	return engineCell{setup: setup, pattern: pattern, ctl: ctl, durationSec: p.durationSec, workload: pattern.String()}
}

// run executes the first n cells of the plan and returns their
// network-mean queuing times.
func (p *sweepPlan) run(form schedule, n int) ([]float64, error) {
	res, err := engineSweep(form, []scenario.Setup{p.base}, n, p.cell)
	if err != nil {
		return nil, err
	}
	return meanWaits(res), nil
}

// group returns the CAP-BP waits of one (pattern, seed) group, in period
// order, and its UTIL-BP wait.
func (p *sweepPlan) group(waits []float64, pi, si int) (capWaits []float64, util float64) {
	g := waits[(pi*len(p.seeds)+si)*p.perGroup():][:p.perGroup()]
	return g[:len(p.periods)], g[len(p.periods)]
}

// aggregate folds the per-cell mean waits into SeedStats rows, in
// pattern order: per (pattern, seed) the best (first-minimum) CAP-BP
// period is the baseline the UTIL-BP run is compared against.
func (p *sweepPlan) aggregate(waits []float64) ([]SeedStats, error) {
	out := make([]SeedStats, 0, len(p.patterns))
	for pi, pat := range p.patterns {
		stats := SeedStats{Pattern: pat, Improvements: make([]float64, len(p.seeds))}
		for si := range p.seeds {
			capWaits, util := p.group(waits, pi, si)
			imp, err := analysis.Improvement(capWaits[analysis.ArgMin(capWaits)], util)
			if err != nil {
				return nil, err
			}
			stats.Improvements[si] = imp * 100
			if stats.Improvements[si] > 0 {
				stats.Wins++
			}
		}
		stats.Mean = analysis.Mean(stats.Improvements)
		stats.Std = analysis.Std(stats.Improvements)
		out = append(out, stats)
	}
	return out, nil
}

// TableIIIMultiSeed runs the Table III comparison across seeds and
// aggregates the improvement distribution per pattern. Every
// (pattern × seed × period) cell of the sweep — plus each group's
// UTIL-BP run — is an independent job on the pooled sweep scheduler,
// so the whole sweep saturates the machine instead of serializing
// behind per-pattern barriers; engines are built once per worker and
// controller kind and rewound between cells (DESIGN.md §3, §5). The
// output is bit-for-bit identical to TableIIIMultiSeedSerial for the
// same inputs.
func TableIIIMultiSeed(base scenario.Setup, patterns []scenario.Pattern, periods []int, durationSec float64, seeds []uint64) ([]SeedStats, error) {
	return tableIIIMultiSeed(pooled, base, patterns, periods, durationSec, seeds)
}

// TableIIIMultiSeedSerial is the serial form of TableIIIMultiSeed: one
// worker, cells in plan order, and a freshly built scenario and engine
// for every cell — the no-reuse baseline engine reuse is compared
// against.
func TableIIIMultiSeedSerial(base scenario.Setup, patterns []scenario.Pattern, periods []int, durationSec float64, seeds []uint64) ([]SeedStats, error) {
	return tableIIIMultiSeed(serial, base, patterns, periods, durationSec, seeds)
}

func tableIIIMultiSeed(form schedule, base scenario.Setup, patterns []scenario.Pattern, periods []int, durationSec float64, seeds []uint64) ([]SeedStats, error) {
	plan, err := newSweepPlan(base, patterns, periods, seeds, durationSec)
	if err != nil {
		return nil, err
	}
	waits, err := plan.run(form, plan.cells())
	if err != nil {
		return nil, err
	}
	return plan.aggregate(waits)
}

// FormatSeedStats renders the multi-seed table.
func FormatSeedStats(rows []SeedStats, seeds []uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "UTIL-BP improvement over best-period CAP-BP, %d seeds\n", len(seeds))
	fmt.Fprintf(&b, "%-8s %-18s %s\n", "Pattern", "mean ± std", "wins")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-18s %d/%d\n",
			r.Pattern.String(),
			fmt.Sprintf("%+.1f%% ± %.1f%%", r.Mean, r.Std),
			r.Wins, len(r.Improvements))
	}
	return b.String()
}
