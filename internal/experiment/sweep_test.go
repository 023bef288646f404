package experiment

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSweepSchedulerDeterminism pins the scheduler contract on a fake
// 500-cell plan: pooled and serial slots agree on a passing plan, the
// serial form runs on the zero state (no engine cache) and the pooled
// form on per-worker state, a failing plan returns the first failure in
// cell order and stops submitting after it, and the live goroutine
// count stays within the worker count plus a small constant.
func TestSweepSchedulerDeterminism(t *testing.T) {
	const n = 500
	workers := min(runtime.GOMAXPROCS(0), n)
	baseline := runtime.NumGoroutine()
	var (
		mu   sync.Mutex
		peak int
	)
	tags := func(idx int) cellTags { return cellTags{workload: "fake", controller: fmt.Sprint(idx)} }
	newState := func() *int { return new(int) }
	sweep := func(form schedule, fail ...int) (slots []int, ran int64, nilStates int64, err error) {
		var ranN, nilN atomic.Int64
		slots, err = sweepCells(form, n, newState, func(state *int, idx int) (int, error) {
			ranN.Add(1)
			if state == nil {
				nilN.Add(1)
			} else {
				*state++ // per-worker state: racy if workers shared it
			}
			mu.Lock()
			peak = max(peak, runtime.NumGoroutine())
			mu.Unlock()
			for _, f := range fail {
				if idx == f {
					return 0, fmt.Errorf("cell %d failed", idx)
				}
			}
			return idx*idx + 1, nil
		}, tags)
		return slots, ranN.Load(), nilN.Load(), err
	}

	pooledSlots, ran, nils, err := sweep(pooled)
	if err != nil {
		t.Fatal(err)
	}
	if ran != n || nils != 0 {
		t.Fatalf("pooled: ran %d cells (%d on nil state), want %d on per-worker state", ran, nils, n)
	}
	serialSlots, ran, nils, err := sweep(serial)
	if err != nil {
		t.Fatal(err)
	}
	if ran != n || nils != n {
		t.Fatalf("serial: ran %d cells (%d on nil state), want %d all on the zero state", ran, nils, n)
	}
	if !reflect.DeepEqual(pooledSlots, serialSlots) {
		t.Fatal("pooled and serial slot contents differ")
	}

	for _, form := range []schedule{pooled, serial} {
		_, ran, _, err := sweep(form, 3, 250)
		if err == nil || !strings.Contains(err.Error(), "cell 3 failed") {
			t.Fatalf("form %d: error = %v, want the cell 3 failure", form, err)
		}
		if ran >= n {
			t.Fatalf("form %d: all %d cells ran after cell 3 failed", form, ran)
		}
		if form == serial && ran != 4 {
			t.Fatalf("serial: ran %d cells, want exactly cells 0..3", ran)
		}
	}
	if limit := baseline + workers + 2; peak > limit {
		t.Fatalf("peak live goroutines %d exceed %d (baseline %d + %d workers + 2)", peak, limit, baseline, workers)
	}
}
