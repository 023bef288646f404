package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a results file (--out), the input of --compare.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

type noted struct {
	value float64
	note  string
}

// report collects a run's metrics with a note each (sample counts and
// the like) and the tally of attempted and failed operations. Every
// check and every unit of work (a sweep, a cell pass, an engine run)
// counts as one attempt.
type report struct {
	trace     bool
	values    map[string]noted
	attempted int
	failed    int
}

func newReport(trace bool) *report {
	return &report{trace: trace, values: map[string]noted{}}
}

// set records a metric; a later set of the same name replaces it.
func (r *report) set(name string, value float64, note string) {
	r.values[name] = noted{value, note}
}

// check counts one correctness check and reports a failure on stderr.
func (r *report) check(name string, ok bool, detail string) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "check failed: %s: %s\n", name, detail)
	}
}

// work counts one unit of work; a non-nil error counts as a failure.
func (r *report) work(what string, err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "%s failed: %v\n", what, err)
		return false
	}
	return true
}

// defs are the metrics of the result line.
func (r *report) defs() []metricDef {
	if r.trace {
		return perLayer
	}
	return endToEnd
}

// result builds the result line: the end-to-end metrics for an
// untraced run, the per-layer ones for a traced run. A metric without a
// sample reads 0 so the line stays valid JSON; the printed note says so.
func (r *report) result() result {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range r.defs() {
		v := r.values[d.name].value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res
}

// finish prints every metric that was set, with its unit and note, then
// the failed fraction, then the result line, which is the last line of
// standard output. It fails if a metric of the result line was never
// set, which is a bug in the benchmark.
func (r *report) finish(w io.Writer) (result, error) {
	var missing []string
	for _, defs := range [][]metricDef{endToEnd, perLayer, printedOnly} {
		for _, d := range defs {
			v, ok := r.values[d.name]
			if !ok {
				continue
			}
			note := v.note
			if math.IsNaN(v.value) {
				note += " (no samples)"
			}
			fmt.Fprintf(w, "%-30s %14.6g %-7s %s\n", d.name, v.value, d.unit, note)
		}
	}
	res := r.result()
	for _, d := range r.defs() {
		if _, ok := r.values[d.name]; !ok {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 {
		return res, fmt.Errorf("metrics never measured: %v", missing)
	}
	frac := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Fprintf(w, "%-30s %14.6g %-7s %d failed of %d attempted\n", "failed_frac", frac, "ratio", res.Failed, res.Attempted)
	b, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	_, err = fmt.Fprintln(w, string(b))
	return res, err
}
