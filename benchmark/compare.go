package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchDef is the part of BENCHMARK.json --compare reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRecords reads a results file written with --out, keeping the
// untraced runs grouped by workload in file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// comparison is one workload × metric row of the compare report.
type comparison struct {
	oldQ, newQ [3]float64
	pairs      int
	wins       int     // pairs the new side won; ties count for neither
	worse      float64 // share of the old median by which new is worse
	verdict    string
}

// compareValues applies the acceptance rule to one metric: medians and
// quartiles per side, the share of interleaved pairs (the i-th run of
// each side) the new side won, and a verdict. The metric is unresolved
// when either side's quartile spread exceeds the bound, unless every new
// run beats every old one.
func compareValues(old, new []float64, lowerBetter bool, bound float64) comparison {
	var c comparison
	c.oldQ = spreadQuartiles(old)
	c.newQ = spreadQuartiles(new)
	better := func(a, b float64) bool { // a better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	c.pairs = min(len(old), len(new))
	for i := 0; i < c.pairs; i++ {
		if better(new[i], old[i]) {
			c.wins++
		}
	}
	medOld, medNew := c.oldQ[1], c.newQ[1]
	c.worse = (medNew - medOld) / medOld
	if !lowerBetter {
		c.worse = -c.worse
	}
	spreadOld := (c.oldQ[2] - c.oldQ[0]) / medOld
	spreadNew := (c.newQ[2] - c.newQ[0]) / medNew
	allBetter := len(old) > 0 && len(new) > 0
	for _, n := range new {
		for _, o := range old {
			allBetter = allBetter && better(n, o)
		}
	}
	// A gain needs ten interleaved pairs, nine tenths of them won.
	gain := c.pairs >= 10 && float64(c.wins) >= 0.9*float64(c.pairs)
	switch {
	case allBetter && gain:
		c.verdict = "better"
	case math.Abs(spreadOld) > bound || math.Abs(spreadNew) > bound:
		c.verdict = "unresolved"
	case c.worse > bound:
		c.verdict = "REGRESSION"
	case gain && math.Abs(medNew-medOld) > c.oldQ[2]-c.oldQ[0]:
		c.verdict = "better"
	default:
		c.verdict = "within bound"
	}
	return c
}

// spreadQuartiles is quartiles for any sample size: one value is its own
// quartiles.
func spreadQuartiles(xs []float64) [3]float64 {
	switch len(xs) {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{xs[0], xs[0], xs[0]}
	}
	q1, q2, q3 := quartiles(xs)
	return [3]float64{q1, q2, q3}
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians and quartiles, the share of interleaved pairs won and the
// verdict against the metric's bound from BENCHMARK.json.
func compareFiles(w io.Writer, benchPath, oldPath, newPath string) error {
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	olds, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	news, err := readRecords(newPath)
	if err != nil {
		return err
	}
	var names []string
	for name := range olds {
		if _, ok := news[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no workload has untraced runs in both %s and %s", oldPath, newPath)
	}
	fmt.Fprintf(w, "%-17s %-20s %-31s %-31s %-9s %-8s %s\n", "workload", "metric", "old q1/median/q3", "new q1/median/q3", "won", "worse", "verdict")
	for _, name := range names {
		for _, m := range def.EndToEnd {
			pick := func(rs []record) []float64 {
				var v []float64
				for _, r := range rs {
					if x, ok := r.Metrics[m.Name]; ok {
						v = append(v, x.Value)
					}
				}
				return v
			}
			c := compareValues(pick(olds[name]), pick(news[name]), m.Better != "higher", m.Bound)
			fmt.Fprintf(w, "%-17s %-20s %-31s %-31s %-9s %+7.1f%% %s (bound %.0f%%)\n", name, m.Name,
				fmt.Sprintf("%.4g/%.4g/%.4g", c.oldQ[0], c.oldQ[1], c.oldQ[2]),
				fmt.Sprintf("%.4g/%.4g/%.4g", c.newQ[0], c.newQ[1], c.newQ[2]),
				fmt.Sprintf("%d/%d", c.wins, c.pairs), c.worse*100, c.verdict, m.Bound*100)
		}
	}
	return nil
}
