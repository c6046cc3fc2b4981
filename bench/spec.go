package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
)

// benchSpec is BENCHMARK.json: the one place metric names, units,
// directions and regression bounds are written down. The harness takes
// every unit and bound from it, so the file and the printed output cannot
// drift apart.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json, so `cd bench && go run .` and the driver's call from the
// repository root both work.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or any parent")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, s.validate()
}

func (s *benchSpec) validate() error {
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("BENCHMARK.json: name %q outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			return fmt.Errorf("BENCHMARK.json: name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
	}
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if err := name(m.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("BENCHMARK.json: metric %s: unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("BENCHMARK.json: metric %s: better %q", m.Name, m.Better)
			}
		}
	}
	return nil
}

// perLayer finds a per-layer metric by name.
func (s *benchSpec) perLayer(name string) (metricSpec, bool) {
	i := slices.IndexFunc(s.PerLayer, func(m metricSpec) bool { return m.Name == name })
	if i < 0 {
		return metricSpec{}, false
	}
	return s.PerLayer[i], true
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the benchmark contract asks for on the last line
// of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSet collects one run's metrics against a list from the spec:
// every listed name is present in the output (0 when the workload does
// not reach that layer), and setting a name the spec does not list is a
// harness bug.
type metricSet struct {
	units map[string]string
	vals  map[string]float64
	// explicit records the names a workload actually measured, so a test
	// can require every listed metric to be produced by some workload.
	explicit map[string]bool
}

func newMetricSet(list []metricSpec) *metricSet {
	m := &metricSet{units: map[string]string{}, vals: map[string]float64{}, explicit: map[string]bool{}}
	for _, s := range list {
		m.units[s.Name] = s.Unit
		m.vals[s.Name] = 0
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	if _, ok := m.units[name]; !ok {
		panic(fmt.Sprintf("metric %q is not listed in BENCHMARK.json", name))
	}
	m.vals[name] = v
	m.explicit[name] = true
}

func (m *metricSet) values() map[string]metricValue {
	out := make(map[string]metricValue, len(m.vals))
	for n, v := range m.vals {
		out[n] = metricValue{Value: v, Unit: m.units[n]}
	}
	return out
}
