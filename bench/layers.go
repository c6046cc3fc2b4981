package main

import (
	"errors"
	"fmt"
	"io"
	"time"

	"flowrank"
)

// The in-process layer passes of a traced run: each times one loop over
// the whole trace around one layer's public call, through the root
// flowrank facade only. They run while no subprocess does, so they share
// the machine with nothing.

// layerTimes are the passes' results, in nanoseconds per packet unless
// the name says otherwise.
type layerTimes struct {
	decode, sample, aggHash float64
	keptShare               float64
	ingest                  map[string]float64 // by table kind, over the workload's key stream
	engine                  float64
	summarizeMS             []float64 // per bin
	countSwappedMS          []float64
	invertMS                []float64
	flowsPerBin             []float64
	recommendMS             []float64 // per refitted bin (adapt-loop only)
	rankingMetricMS         float64
}

// passNS records one whole-trace pass as a span and returns ns/packet.
func passNS(tr *tracer, parent int, name, layer string, packets int64, start, end time.Time) float64 {
	tr.harness(parent, name, layer, 0, -1, start, end, packets)
	return float64(end.Sub(start).Nanoseconds()) / float64(packets)
}

// layerPasses runs every pass for the workload. parent is the span the
// passes hang under.
func layerPasses(pr *prepared, tr *tracer, parent int) (*layerTimes, error) {
	w := pr.w
	agg, err := aggregator(w.agg)
	if err != nil {
		return nil, err
	}
	lt := &layerTimes{ingest: map[string]float64{}}

	// source: decode the whole file into memory; the later passes read the
	// slice, so they time their own layer and nothing else.
	pkts := make([]flowrank.Packet, pr.packets)
	src, err := flowrank.OpenSource(pr.tracePath, w.pcap)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i := range pkts {
		if err := src.Next(&pkts[i]); err != nil {
			src.Close()
			return nil, fmt.Errorf("decode pass: packet %d of %d: %w", i, len(pkts), err)
		}
	}
	t1 := time.Now()
	var extra flowrank.Packet
	if err := src.Next(&extra); !errors.Is(err, io.EOF) {
		src.Close()
		return nil, fmt.Errorf("decode pass: trace holds more than the %d packets set-up counted", len(pkts))
	}
	src.Close()
	lt.decode = passNS(tr, parent, "decode", "source", pr.packets, t0, t1)

	// sampler
	smp := flowrank.NewBernoulli(w.p, samplerSeed)
	kept := int64(0)
	t0 = time.Now()
	for i := range pkts {
		if smp.Sample(pkts[i]) {
			kept++
		}
	}
	lt.sample = passNS(tr, parent, "sample", "sampler", pr.packets, t0, time.Now())
	lt.keptShare = float64(kept) / float64(pr.packets)

	// flow: aggregate + hash, as the engine's reader does per packet.
	var sink uint64
	t0 = time.Now()
	for i := range pkts {
		sink += agg.Aggregate(pkts[i].Key).FastHash()
	}
	lt.aggHash = passNS(tr, parent, "aggregate+hash", "flow", pr.packets, t0, time.Now())
	if sink == 0 {
		return nil, errors.New("aggregate+hash pass: every hash was zero")
	}

	// flowtable: all three kinds over this workload's aggregated key
	// stream, reset at the workload's bin boundaries. Bounded kinds get the
	// workload's slot budget, or the kind default when it has none.
	keys := make([]flowrank.Key, len(pkts))
	for i := range pkts {
		keys[i] = agg.Aggregate(pkts[i].Key)
	}
	slots := w.memory
	if slots == 0 {
		slots = 4096
	}
	for _, kind := range []struct {
		name  string
		table flowrank.FlowSummary
	}{
		{"exact", flowrank.NewFlatFlowTable(agg, 0)},
		{"spacesaving", flowrank.NewSpaceSavingTable(agg, slots)},
		{"countmin", flowrank.NewCountMinTable(agg, slots)},
	} {
		t := kind.table
		binEnd := w.binSec
		t0 = time.Now()
		for i := range pkts {
			if pkts[i].Time >= binEnd {
				t.Reset()
				binEnd = (float64(int64(pkts[i].Time/w.binSec)) + 1) * w.binSec
			}
			t.AddAggregated(keys[i], pkts[i].Time, int64(pkts[i].Size))
		}
		lt.ingest[kind.name] = passNS(tr, parent, "ingest "+kind.name, "flowtable", pr.packets, t0, time.Now())
	}
	keys = nil

	// stream: the engine in the workload's configuration, fed from memory,
	// emitting into nothing.
	spec, err := flowrank.ParseTableSpec(w.table, w.memory)
	if err != nil {
		return nil, err
	}
	cfg := flowrank.StreamConfig{
		Agg: agg, Sampler: flowrank.NewBernoulli(w.p, samplerSeed), BinSeconds: w.binSec, TopT: w.topT,
		Workers: w.workers, Tables: spec, Inverter: inverterByName(w.invert), Recycle: true,
	}
	eng, err := flowrank.NewStreamEngine(cfg, func(flowrank.StreamBin) error { return nil })
	if err != nil {
		return nil, err
	}
	mem := flowrank.NewSliceSource(pkts)
	var p flowrank.Packet
	t0 = time.Now()
	for mem.Next(&p) == nil {
		if err := eng.Feed(p); err != nil {
			eng.Close()
			return nil, err
		}
	}
	if err := eng.Close(); err != nil {
		return nil, err
	}
	lt.engine = passNS(tr, parent, "engine", "stream", pr.packets, t0, time.Now())

	// flowtable summarize, metrics and invert per bin, inside one more run
	// of the reference composition; on adapt-loop each inverted bin is then
	// refitted the way flowtop -adapt does.
	ctl := flowrank.Controller{Target: w.adapt, TopT: w.topT, Workers: w.workers}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var passErr error
	refSpan := tr.begin(parent, "reference", pr.packets)
	_, _, err = reference("", w, pkts, func(st binStages) {
		bin, flows := st.bin, int64(st.flows)
		lt.flowsPerBin = append(lt.flowsPerBin, float64(flows))
		lt.summarizeMS = append(lt.summarizeMS, ms(st.t1.Sub(st.t0)))
		lt.countSwappedMS = append(lt.countSwappedMS, ms(st.t2.Sub(st.t1)))
		tr.harness(refSpan, "summarize", "flowtable", 0, bin, st.t0, st.t1, flows)
		tr.harness(refSpan, "count_swapped", "metrics", 0, bin, st.t1, st.t2, flows)
		if w.invert != "" {
			lt.invertMS = append(lt.invertMS, ms(st.i1.Sub(st.i0)))
			tr.harness(refSpan, "invert", "invert", 0, bin, st.i0, st.i1, flows)
		}
		if w.adapt <= 0 || st.est == nil || passErr != nil {
			return
		}
		t0 := time.Now()
		rate, model, err := ctl.RecommendEstimate(*st.est)
		t1 := time.Now()
		if err != nil {
			passErr = fmt.Errorf("refit of bin %d: %w", bin, err)
			return
		}
		lt.recommendMS = append(lt.recommendMS, ms(t1.Sub(t0)))
		tr.harness(refSpan, "recommend", "adaptive", 0, bin, t0, t1, int64(model.N))
		if !(rate > 0 && rate <= 1) {
			passErr = fmt.Errorf("refit of bin %d recommends rate %g, outside (0, 1]", bin, rate)
		}
		if lt.rankingMetricMS == 0 {
			// One model evaluation at the workload's own operating point,
			// the unit of work the refit's root search repeats.
			t0 = time.Now()
			if v := model.RankingMetric(w.p); v < 0 {
				passErr = fmt.Errorf("ranking metric %g at p=%g is negative", v, w.p)
			}
			t1 = time.Now()
			lt.rankingMetricMS = ms(t1.Sub(t0))
			tr.harness(refSpan, "ranking_metric", "core", 0, bin, t0, t1, int64(model.N))
		}
	})
	tr.end(refSpan)
	if err == nil {
		err = passErr
	}
	return lt, err
}
