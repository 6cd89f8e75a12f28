package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call made by the benchmark into a layer's public
// function (or, for "op", through the public surface). Spans of one
// operation share Op; Parent is the span that was open when this one
// began, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory; they are written out once, when the
// traced pass is over. The traced pass has one client, so one stack of
// open spans is all the parent tracking needs.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	open  []int // indexes into spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setOp names the operation the following spans belong to.
func (t *tracer) setOp(op int) { t.op = op }

// in times f as a span called name: "<layer>.<call>", where layer is
// the package the call enters.
func (t *tracer) in(name string, f func()) time.Duration {
	parent := 0
	if len(t.open) > 0 {
		parent = t.spans[t.open[len(t.open)-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{ID: idx + 1, Parent: parent, Op: t.op, Name: name})
	t.open = append(t.open, idx)
	start := time.Now()
	f()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	t.spans[idx].Start, t.spans[idx].End = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	return end.Sub(start)
}

// adopt makes span child (an index into spans) a child of span parent.
// The replay uses it for work a layer does inside a call that cannot be
// opened from outside: the inner work is replayed separately and then
// attributed to the enclosing call, so that call's self time excludes it.
func (t *tracer) adopt(parent, child int) { t.spans[child].Parent = t.spans[parent].ID }

// perOp returns, for every operation that has a span whose name has the
// prefix, the total time of those spans in that operation.
func (t *tracer) perOp(prefix string) []time.Duration {
	sums := map[int]time.Duration{}
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			sums[s.Op] += s.dur()
		}
	}
	out := make([]time.Duration, 0, len(sums))
	for _, d := range sums {
		out = append(out, d)
	}
	return out
}

// medianMS is the median per-operation time under the prefix, in ms; 0
// when no operation entered it.
func (t *tracer) medianMS(prefix string) float64 {
	return ms(percentile(t.perOp(prefix), 0.5))
}

// medianSpanMS is the median duration of the single spans under the
// prefix, in ms.
func (t *tracer) medianSpanMS(prefix string) float64 {
	var ds []time.Duration
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			ds = append(ds, s.dur())
		}
	}
	return ms(percentile(ds, 0.5))
}

// selfTimes returns each layer's self time: its spans' durations minus
// the part their child spans cover. The layer is the span name up to
// the first dot.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += s.dur() - children[s.ID]
	}
	return self
}

// layerShare is one row of the self-time table.
type layerShare struct {
	Layer  string  `json:"layer"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"` // of all replay self time
}

// shares ranks the layers entered by the replay by self time. The "op"
// spans (the surface calls themselves), the "replay" containers and the
// "diag" measurements are left out: the table splits the replayed work
// of the operations, nothing else. contained is time inside a layer's
// spans that the layer itself reported as spent in a layer below (the
// evaluation time in idlogd's responses); it is taken off that layer.
func (t *tracer) shares(contained map[string]time.Duration) []layerShare {
	self := t.selfTimes()
	delete(self, "op")
	delete(self, "replay")
	delete(self, "diag")
	for layer, d := range contained {
		self[layer] -= d
	}
	var total time.Duration
	for _, d := range self {
		total += d
	}
	out := make([]layerShare, 0, len(self))
	for layer, d := range self {
		out = append(out, layerShare{layer, ms(d), ratio(float64(d), float64(total))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// traceFile is what lands in out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Ops      int                `json:"ops"`
	Shares   []layerShare       `json:"layer_self_time"`
	Metrics  map[string]float64 `json:"metrics"`
	Spans    []span             `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
