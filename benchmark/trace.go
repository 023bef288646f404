package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"utilbp/internal/sensing"
	"utilbp/internal/signal"
	"utilbp/internal/snap"
)

// epoch is the origin of every span timestamp.
var epoch = time.Now()

// maxSpans bounds the spans one tracer keeps; later spans are counted
// as dropped instead, so a long sweep cannot grow the traced run's heap
// without limit.
const maxSpans = 1 << 18

// span is one timed interval at a layer boundary. Parent is the ID of
// the span that caused it (0 for a root).
type span struct {
	ID, Parent int64
	Name       string
	Start, End time.Duration // since epoch
}

// spanIDs hands out span IDs unique across every tracer of the process.
var spanIDs atomic.Int64

// tracer records the spans and layer counters of one goroutine's traced
// work. It is not safe for concurrent use: every sweep worker owns one
// and the results are merged after the workers finish.
type tracer struct {
	spans   []span
	dropped int
	// parent is the span new child spans attach to.
	parent int64

	// Control layer, from the wrapped BatchController.DecideAll.
	decide                  time.Duration
	rounds, fullRounds      int64
	changedLinks, seenLinks int64
	// Sensing layer, from the wrapped Sensor.SenseLink.
	senseCalls int64
}

// openSpan is a span begun and not yet ended.
type openSpan struct {
	id, prev int64
	name     string
	start    time.Duration
}

// begin opens a span under the current parent and makes it the parent
// of spans opened until the matching end. A nil tracer records nothing.
func (t *tracer) begin(name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	s := openSpan{id: spanIDs.Add(1), prev: t.parent, name: name, start: time.Since(epoch)}
	t.parent = s.id
	return s
}

// end closes a span begun with begin and restores the previous parent.
func (t *tracer) end(s openSpan) {
	if t == nil {
		return
	}
	t.parent = s.prev
	t.add(span{ID: s.id, Parent: s.prev, Name: s.name, Start: s.start, End: time.Since(epoch)})
}

func (t *tracer) add(s span) {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// merge folds another tracer's spans and counters into t.
func (t *tracer) merge(o *tracer) {
	for _, s := range o.spans {
		t.add(s)
	}
	t.dropped += o.dropped
	t.decide += o.decide
	t.rounds += o.rounds
	t.fullRounds += o.fullRounds
	t.changedLinks += o.changedLinks
	t.seenLinks += o.seenLinks
	t.senseCalls += o.senseCalls
}

// writeSpans writes the spans as Chrome trace-event JSON (complete "X"
// events in microseconds, one track per root span), which chrome://tracing
// and Perfetto open directly.
func writeSpans(path string, t *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int64            `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	root := make(map[int64]int64, len(t.spans))
	for _, s := range t.spans {
		root[s.ID] = s.Parent
	}
	track := func(id int64) int64 {
		for root[id] != 0 {
			id = root[id]
		}
		return id
	}
	fmt.Fprint(w, "[")
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		if err := enc.Encode(event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: track(s.ID),
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int64{"id": s.ID, "parent": s.Parent},
		}); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceFactory wraps a batch-capable controller factory so every batched
// controller it builds reports to t. Per-junction factories are returned
// unchanged: the engine never calls DecideAll for them, and wrapping
// them would only add an indirection. The wrapper keeps the inner
// factory's Name, which the engine writes into snapshot fingerprints.
func traceFactory(f signal.Factory, t *tracer) signal.Factory {
	if t == nil {
		return f
	}
	if bf, ok := f.(signal.BatchFactory); ok {
		return tracedFactory{BatchFactory: bf, tr: t}
	}
	return f
}

type tracedFactory struct {
	signal.BatchFactory
	tr *tracer
}

// NewBatch implements signal.BatchFactory. The returned controller
// forwards snap.Snapshotter when the inner one implements it, so a
// traced engine snapshots exactly like an untraced one.
func (f tracedFactory) NewBatch(infos []signal.JunctionInfo) (signal.BatchController, error) {
	bc, err := f.BatchFactory.NewBatch(infos)
	if err != nil {
		return nil, err
	}
	links := 0
	for _, info := range infos {
		links += info.NumLinks
	}
	tb := &tracedBatch{inner: bc, tr: f.tr, links: int64(links)}
	if s, ok := bc.(snap.Snapshotter); ok {
		return tracedSnapBatch{tracedBatch: tb, Snapshotter: s}, nil
	}
	return tb, nil
}

type tracedBatch struct {
	inner signal.BatchController
	tr    *tracer
	links int64
}

func (b *tracedBatch) Name() string { return b.inner.Name() }

// DecideAll implements signal.BatchController: it times and counts the
// round and records it as a span under the current window.
func (b *tracedBatch) DecideAll(batch *signal.Batch) {
	t := b.tr
	t.rounds++
	t.seenLinks += b.links
	if batch.AllChanged {
		t.fullRounds++
		t.changedLinks += b.links
	} else {
		t.changedLinks += int64(len(batch.Changed))
	}
	start := time.Now()
	b.inner.DecideAll(batch)
	end := time.Now()
	t.decide += end.Sub(start)
	t.add(span{ID: spanIDs.Add(1), Parent: t.parent, Name: "decide", Start: start.Sub(epoch), End: end.Sub(epoch)})
}

type tracedSnapBatch struct {
	*tracedBatch
	snap.Snapshotter
}

// traceSensor wraps a sensor so SenseLink calls are counted. Reseed and
// Prepare forward through the embedded interface; snap.Snapshotter is
// forwarded when the inner sensor implements it.
func traceSensor(s sensing.Sensor, t *tracer) sensing.Sensor {
	if s == nil || t == nil {
		return s
	}
	ts := &tracedSensor{Sensor: s, tr: t}
	if sn, ok := s.(snap.Snapshotter); ok {
		return tracedSnapSensor{tracedSensor: ts, Snapshotter: sn}
	}
	return ts
}

type tracedSensor struct {
	sensing.Sensor
	tr *tracer
}

// SenseLink implements sensing.Sensor.
func (s *tracedSensor) SenseLink(link int, truth, obs *signal.LinkObs, step int) {
	s.tr.senseCalls++
	s.Sensor.SenseLink(link, truth, obs, step)
}

type tracedSnapSensor struct {
	*tracedSensor
	snap.Snapshotter
}
