// Command benchmark measures the simulator end to end and layer by
// layer on three workloads, checks that what it ran is correct, and
// prints one JSON result line last:
//
//	bash benchmark/run.sh --workload table3-sweep --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// run that interleaves traced and untraced repetitions of the same work
// and reports the per-layer metrics (see metrics.go). --cpuprofile and
// --spans write a CPU profile and the traced run's spans; --out appends
// the result to a JSON-lines file, and --compare OLD NEW compares two
// such files metric by metric against the bounds in BENCHMARK.json. To
// compare two commits, run each workload ten times on each, alternating
// the commits and the seeds, with --out parent.jsonl and --out
// change.jsonl, then
//
//	bash benchmark/run.sh --compare parent.jsonl change.jsonl
//
// The benchmark calls only the simulator's public package functions and
// wraps the controller and sensor interfaces to observe them; it changes
// nothing inside the simulator.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

func main() {
	workload := flag.String("workload", "", "workload to run: table3-sweep, city-drain or city-incident-cv")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long the measured repetitions run")
	trace := flag.Int("trace", 0, "1 for the traced run, which reports per-layer metrics")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	spans := flag.String("spans", "", "write the traced run's spans as Chrome trace-event JSON to this file")
	out := flag.String("out", "", "append the result as one JSON line to this file")
	compare := flag.Bool("compare", false, "compare two results files, OLD NEW, instead of running")
	bench := flag.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds --compare applies")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare wants two results files, got %d arguments", flag.NArg()))
		}
		if err := compareFiles(os.Stdout, *bench, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive, got %v", *seconds))
	}
	runtime.GOMAXPROCS(min(workers, runtime.NumCPU()))
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, minReps: 6, setupReps: 5}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
	}
	rp, tr, err := runWorkload(*workload, cfg)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fatal(err)
	}
	if *spans != "" && tr != nil {
		if err := writeSpans(*spans, tr); err != nil {
			fatal(err)
		}
		if tr.dropped > 0 {
			fmt.Printf("# %d spans kept, %d dropped past the cap\n", len(tr.spans), tr.dropped)
		}
	}
	res, err := rp.finish(os.Stdout)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: *workload, Seed: *seed, Trace: cfg.trace, result: res}); err != nil {
			fatal(err)
		}
	}
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
