package main

import (
	"fmt"
	"strconv"
)

// workload is one named input + command line. The same fields drive the
// real binary (args) and the in-process layer passes (layers.go), so the
// two always measure the same configuration. -workers is always passed
// explicitly; a default of GOMAXPROCS would make the command depend on
// the machine.
type workload struct {
	name string
	// tracegen input.
	preset  string
	seconds float64 // trace duration; flows outlive it, so later bins exist
	rate    float64 // flow arrival multiplier
	pcap    bool
	// monitor configuration (flowtop / flowrankd flags).
	p       float64
	topT    int
	binSec  float64
	workers int
	agg     string // 5tuple | prefix24
	table   string // exact | spacesaving | countmin
	memory  int    // slots per bounded table, 0 for exact
	invert  string
	adapt   float64
	netflow bool // export the sampled ranking (file for flowtop, UDP for flowrankd)
	daemon  bool // flowrankd -loop instead of one flowtop pass
}

// The trace sizes are about half of what a 30-45 s run would use: the
// driver's cap leaves ~30 s per run including three set-ups, so the
// repetitions were cut, not the workloads. Table state on batch-exact
// (~280k flows in bin 0) is still far beyond L2.
var workloads = []workload{
	{
		name: "batch-exact", preset: "sprint5", seconds: 30, rate: 4,
		p: 0.01, topT: 10, binSec: 60, workers: 1, agg: "5tuple", table: "exact",
	},
	{
		name: "pcap-sharded", preset: "sprint24", seconds: 40, rate: 1, pcap: true,
		p: 0.1, topT: 10, binSec: 5, workers: 2, agg: "prefix24", table: "spacesaving", memory: 1024,
		netflow: true,
	},
	{
		// One 600 s bin holds the whole trace: one inversion and one refit
		// per invocation, and no bin runs at the retuned rate, so this times
		// the control decision and not the loop's effect. With 60 s bins the
		// few-flow straggler bins each cost a 2-10 s refit whose length
		// swings with the seed.
		name: "adapt-loop", preset: "sprint5", seconds: 20, rate: 1,
		p: 0.1, topT: 10, binSec: 600, workers: 2, agg: "5tuple", table: "exact",
		invert: "parametric", adapt: 1,
	},
	{
		name: "daemon-scrape", preset: "sprint5", seconds: 30, rate: 4,
		p: 0.01, topT: 10, binSec: 5, workers: 2, agg: "5tuple", table: "countmin", memory: 4096,
		invert: "naive", netflow: true, daemon: true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// tracegenArgs is the generator command line; scale shortens the trace
// for the smoke test.
func (w workload) tracegenArgs(seed uint64, scale float64, out string) []string {
	a := []string{"-preset", w.preset, "-seconds", ftoa(w.seconds * scale), "-rate", ftoa(w.rate),
		"-seed", strconv.FormatUint(seed, 10), "-o", out}
	if w.pcap {
		return append(a, "-pcap")
	}
	return append(a, "-packets")
}

// monitorArgs are the flags flowtop and flowrankd share.
func (w workload) monitorArgs(in string, workers int) []string {
	a := []string{"-in", in, "-p", ftoa(w.p), "-t", strconv.Itoa(w.topT), "-bin", ftoa(w.binSec),
		"-workers", strconv.Itoa(workers), "-agg", w.agg, "-table", w.table}
	if w.pcap {
		a = append(a, "-pcap")
	}
	if w.memory > 0 {
		a = append(a, "-memory", strconv.Itoa(w.memory))
	}
	if w.invert != "" {
		a = append(a, "-invert", w.invert)
	}
	if w.adapt > 0 {
		a = append(a, "-adapt", ftoa(w.adapt))
	}
	return a
}
