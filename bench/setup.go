package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"flowrank"
)

// env is what one harness process works in: the repository checkout, the
// built binaries and a scratch directory that is removed on exit.
type env struct {
	root string // checkout root (holds BENCHMARK.json and the flowrank module)
	bin  string // <root>/.bench_build/bin
	tmp  string // <root>/.bench_build/tmp/run-*, removed on exit
	seed uint64
	size sizing
}

// sizing is how much work a run does around the part --seconds governs.
type sizing struct {
	traceScale   float64       // multiplies every workload's trace duration
	setUps       int           // set-up is timed this often and the median reported
	warmUp       bool          // one untimed invocation before the timed ones
	minTimed     int           // timed invocations per run, however long one takes
	daemonWarmUp time.Duration // scraped but not measured, at the start of a daemon lifetime
}

// benchSizing is what every run but the smoke test's uses. Three timed
// invocations are the fewest whose quartiles say anything; only adapt-loop
// (one ~5 s refit each) needs the floor, the others fit more in --seconds.
var benchSizing = sizing{traceScale: 1, setUps: 3, warmUp: true, minTimed: 3, daemonWarmUp: 1500 * time.Millisecond}

// Per-operation time limits. The first build in a fresh checkout compiles
// the standard library into the checkout's own build cache.
const (
	buildTimeout    = 800 * time.Second
	tracegenTimeout = 60 * time.Second
	invokeTimeout   = 90 * time.Second
)

// build compiles the four programs the workloads drive from the checkout's
// source. Warm, it is a staleness check of a few hundred milliseconds.
func (e *env) build(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, buildTimeout)
	defer cancel()
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.bin+string(filepath.Separator),
		"./cmd/tracegen", "./cmd/flowtop", "./cmd/flowrankd", "./cmd/journalcheck")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the programs: %w\n%s", err, out)
	}
	return nil
}

// prepared is a workload's input after set-up.
type prepared struct {
	w          workload
	tracePath  string
	traceBytes int64
	packets    int64
	ref        []refBin // nil for workloads checked another way
}

// setUp is one full set-up of a workload: build, generate the trace from
// the seed, and compute the reference the outputs are checked against.
func (e *env) setUp(ctx context.Context, w workload) (*prepared, error) {
	if err := e.build(ctx); err != nil {
		return nil, err
	}
	ext := ".pkts"
	if w.pcap {
		ext = ".pcap"
	}
	pr := &prepared{w: w, tracePath: filepath.Join(e.tmp, w.name+ext)}
	tctx, cancel := context.WithTimeout(ctx, tracegenTimeout)
	defer cancel()
	cmd := exec.CommandContext(tctx, filepath.Join(e.bin, "tracegen"), w.tracegenArgs(e.seed, e.size.traceScale, pr.tracePath)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("tracegen: %w\n%s", err, out)
	}
	st, err := os.Stat(pr.tracePath)
	if err != nil {
		return nil, err
	}
	pr.traceBytes = st.Size()
	// The exact-table report is compared line for line with the reference
	// and the bounded one within its printed count error. The adaptive
	// loop retunes the rate between bins and the daemon loops the trace,
	// so those two are checked by other means and only need the packet
	// count.
	if w.adapt > 0 || w.daemon {
		pr.packets, err = countPackets(pr.tracePath, w.pcap)
	} else {
		pr.ref, pr.packets, err = reference(pr.tracePath, w, nil, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("reference for %s: %w", w.name, err)
	}
	if pr.packets == 0 {
		return nil, fmt.Errorf("%s: generated trace holds no packets", w.name)
	}
	return pr, nil
}

func countPackets(path string, isPcap bool) (int64, error) {
	src, err := flowrank.OpenSource(path, isPcap)
	if err != nil {
		return 0, err
	}
	defer src.Close()
	var p flowrank.Packet
	var n int64
	for {
		if err := src.Next(&p); err != nil {
			if errors.Is(err, io.EOF) {
				return n, nil
			}
			return n, err
		}
		n++
	}
}

func aggregator(name string) (flowrank.Aggregator, error) {
	switch name {
	case "5tuple":
		return flowrank.FiveTuple{}, nil
	case "prefix24":
		return flowrank.DstPrefix{Bits: 24}, nil
	}
	return nil, fmt.Errorf("unknown aggregation %q", name)
}

// inverterByName maps the -invert values the workloads use; "" is none.
func inverterByName(name string) flowrank.Inverter {
	switch name {
	case "naive":
		return flowrank.NaiveInverter{}
	case "parametric":
		return flowrank.ParametricInverter{}
	}
	return nil
}

// samplerSeed is the -seed default of flowtop and flowrankd; the workloads
// leave it alone, so the reference uses the same decision stream.
const samplerSeed = 1

// refBin is one bin of the reference: the sequential composition of the
// facade layers (source -> sampler -> aggregator -> exact FlowSummary ->
// CountSwapped), with no engine, shards or sketches involved.
type refBin struct {
	bin                 int64
	flows               int
	pairs               flowrank.PairCounts
	trueTop, sampledTop []printedFlow
	// exact per-flow counts, kept only when the workload's own tables are
	// bounded and its printed counts are checked against a tolerance.
	orig, sampled map[string]int64
}

// binStages is when the reference's per-bin stages ran for one bin; the
// traced run turns them into spans. est is the bin's inversion when the
// workload inverts and the bin could be inverted.
type binStages struct {
	bin   int64
	flows int
	// summarize is [t0,t1), CountSwapped [t1,t2), Invert [i0,i1).
	t0, t1, t2, i0, i1 time.Time
	est                *flowrank.Inversion
}

// reference runs the sequential composition over the trace file, or over
// pkts when the caller already decoded the trace. Bin boundaries follow
// the engine's rule: a packet at or past the end of the current bin closes
// it, and the packet's own bin is floor(time/width).
func reference(path string, w workload, pkts []flowrank.Packet, timings func(binStages)) ([]refBin, int64, error) {
	agg, err := aggregator(w.agg)
	if err != nil {
		return nil, 0, err
	}
	var src flowrank.PacketSource
	if pkts != nil {
		src = flowrank.NewSliceSource(pkts)
	} else if src, err = flowrank.OpenSource(path, w.pcap); err != nil {
		return nil, 0, err
	}
	defer src.Close()
	inverter := inverterByName(w.invert)
	smp := flowrank.NewBernoulli(w.p, samplerSeed)
	var orig, samp flowrank.FlowSummary = flowrank.NewFlatFlowTable(agg, 0), flowrank.NewFlatFlowTable(agg, 0)
	keepCounts := w.table != "exact"

	var bins []refBin
	var entries, top []flowrank.FlowEntry
	flush := func(bin int64) {
		t0 := time.Now()
		entries = orig.AppendEntries(entries[:0])
		top = samp.AppendTop(top[:0], w.topT)
		sampled := samp.AppendCounts(nil)
		t1 := time.Now()
		pairs := flowrank.CountSwapped(entries, sampled, w.topT)
		t2 := time.Now()
		rb := refBin{bin: bin, flows: len(entries), pairs: pairs}
		for i := 0; i < w.topT && i < len(entries); i++ {
			rb.trueTop = append(rb.trueTop, printedFlow{entries[i].Key.String(), entries[i].Packets})
		}
		for _, e := range top {
			rb.sampledTop = append(rb.sampledTop, printedFlow{e.Key.String(), e.Packets})
		}
		if keepCounts {
			rb.orig = make(map[string]int64, len(entries))
			for _, e := range entries {
				rb.orig[e.Key.String()] = e.Packets
			}
			rb.sampled = make(map[string]int64, len(sampled))
			for k, n := range sampled {
				rb.sampled[k.String()] = n
			}
		}
		bins = append(bins, rb)
		if timings != nil {
			st := binStages{bin: bin, flows: len(entries), t0: t0, t1: t1, t2: t2}
			if inverter != nil {
				counts := make([]float64, 0, len(sampled))
				for _, n := range sampled {
					counts = append(counts, float64(n))
				}
				st.i0 = time.Now()
				// A bin too small to invert is part of the input, not a
				// failure: flowtop prints the estimator's error and moves on.
				if e, err := inverter.Invert(counts, w.p); err == nil {
					st.est = &e
				}
				st.i1 = time.Now()
			}
			timings(st)
		}
		orig.Reset()
		samp.Reset()
	}

	var p flowrank.Packet
	var n, inBin int64
	bin := int64(0)
	for {
		if err := src.Next(&p); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, n, err
		}
		if p.Time >= float64(bin+1)*w.binSec {
			if inBin > 0 {
				flush(bin)
				inBin = 0
			}
			bin = int64(p.Time / w.binSec)
			for p.Time >= float64(bin+1)*w.binSec {
				bin++
			}
			for p.Time < float64(bin)*w.binSec {
				bin--
			}
		}
		key := agg.Aggregate(p.Key)
		orig.AddAggregated(key, p.Time, int64(p.Size))
		if smp.Sample(p) {
			samp.AddAggregated(key, p.Time, int64(p.Size))
		}
		n++
		inBin++
	}
	if inBin > 0 {
		flush(bin)
	}
	return bins, n, nil
}
