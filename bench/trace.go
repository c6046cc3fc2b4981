package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans recorded by the
// harness around its own calls have origin "harness"; spans rebuilt from
// what a program published (journal stage records) have origin "program".
// Times are nanoseconds since the tracer was created.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"` // 0 = root
	Name       string `json:"name"`
	Layer      string `json:"layer"`
	Workload   string `json:"workload"`
	Invocation int    `json:"invocation"` // 0 = not part of an invocation
	Bin        int64  `json:"bin"`        // -1 = not a per-bin span
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	Count      int64  `json:"count"` // work done inside the span (packets, flows)
	Origin     string `json:"origin"`
	// SelfNS is the span's duration minus the part its children cover,
	// filled in when the file is written.
	SelfNS int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the traced run ends; untraced runs
// have none. It is used from one goroutine.
type tracer struct {
	epoch    time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

func (t *tracer) at(ts time.Time) int64 { return ts.Sub(t.epoch).Nanoseconds() }

// add records a finished span and returns its id.
func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	s.Workload = t.workload
	if s.Origin == "" {
		s.Origin = "harness"
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// harness records a span the harness timed itself.
func (t *tracer) harness(parent int, name, layer string, invocation int, bin int64, start, end time.Time, count int64) int {
	return t.add(span{Parent: parent, Name: name, Layer: layer, Invocation: invocation, Bin: bin,
		StartNS: t.at(start), EndNS: t.at(end), Count: count})
}

// begin opens a harness span that encloses others; end closes it.
func (t *tracer) begin(parent int, name string, count int64) int {
	now := time.Now()
	return t.harness(parent, name, "harness", 0, -1, now, now, count)
}

func (t *tracer) end(id int) { t.spans[id-1].EndNS = t.at(time.Now()) }

// selfTimes fills SelfNS: duration minus the union of the children's
// intervals, clipped to the span.
func selfTimes(spans []span) {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for i := range spans {
		s := &spans[i]
		covered := int64(0)
		// Children are appended in start order per parent (the harness
		// records sequentially; journal stages are laid out in order), so
		// one pass merges overlaps.
		cursor := s.StartNS
		for _, c := range children[s.ID] {
			lo, hi := max(c.StartNS, cursor), min(c.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		s.SelfNS = s.EndNS - s.StartNS - covered
	}
}

// write stores the spans under bench/out/<run>/trace-<workload>.json.
func (t *tracer) write(dir string) (string, error) {
	selfTimes(t.spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{t.workload, t.spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
