package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"flowrank/internal/flow"
	"flowrank/internal/flowtable"
	"flowrank/internal/invert"
	"flowrank/internal/metrics"
	"flowrank/internal/obs"
	"flowrank/internal/packet"
	"flowrank/internal/packetgen"
	"flowrank/internal/randx"
	"flowrank/internal/sampler"
	"flowrank/internal/tracegen"
)

// makePackets materializes a multi-bin Sprint-like packet trace.
func makePackets(t testing.TB, seconds, arrival float64, seed uint64) []packet.Packet {
	t.Helper()
	cfg := tracegen.SprintFiveTuple(seconds, seed)
	cfg.ArrivalRate = arrival
	records, err := tracegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pkts []packet.Packet
	if err := packetgen.Stream(records, seed+1, func(p packet.Packet) error {
		pkts = append(pkts, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return pkts
}

// referenceBins is an independent sequential implementation of the
// monitor — the literal loop cmd/flowtop ran before the engine existed:
// one flow-table pair, per-packet sampling, flush at each bin boundary.
func referenceBins(pkts []packet.Packet, agg flow.Aggregator, smp sampler.Sampler, binSec float64, topT int) []BinResult {
	orig := flowtable.New(agg)
	samp := flowtable.New(agg)
	binIdx := int64(0)
	var out []BinResult
	flush := func() {
		if orig.Len() == 0 {
			binIdx++
			return
		}
		origSorted := orig.Entries()
		sampled := samp.AppendCounts(nil)
		out = append(out, BinResult{
			Bin:            binIdx,
			Start:          float64(binIdx) * binSec,
			End:            float64(binIdx+1) * binSec,
			OrigTop:        withoutTimes(origSorted[:min(topT, len(origSorted))]),
			Flows:          len(origSorted),
			SampledTop:     samp.Top(topT),
			SampledFlows:   samp.Len(),
			Pairs:          metrics.CountSwapped(origSorted, sampled, topT),
			OrigPackets:    orig.TotalPackets(),
			OrigBytes:      orig.TotalBytes(),
			SampledPackets: samp.TotalPackets(),
			SampledBytes:   samp.TotalBytes(),
		})
		orig.Reset()
		samp.Reset()
		binIdx++
	}
	for _, p := range pkts {
		for p.Time >= float64(binIdx+1)*binSec {
			flush()
		}
		orig.Add(p)
		if smp.Sample(p) {
			samp.Add(p)
		}
	}
	flush()
	return out
}

// withoutTimes returns es with First and Last zeroed, as BinResult.OrigTop
// carries its flows.
func withoutTimes(es []flowtable.Entry) []flowtable.Entry {
	for i := range es {
		es[i].First, es[i].Last = 0, 0
	}
	return es
}

// runEngine feeds pkts through an engine and collects every BinResult.
func runEngine(t testing.TB, cfg Config, pkts []packet.Packet) []BinResult {
	t.Helper()
	var out []BinResult
	eng, err := NewEngine(cfg, func(b BinResult) error {
		out = append(out, b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := eng.Feed(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// compareBins checks two bin streams for equal measurements: every field
// bit for bit but the stage timings, which takes in OrigTop, Flows, Pairs,
// SampledTop, SampledFlows, the totals and Inversion as delivered.
func compareBins(t *testing.T, label string, got, want []BinResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d bins, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		g.Stages, w.Stages = obs.StageNanos{}, obs.StageNanos{} // timings, not measurement
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: bin %d diverges:\ngot  %+v\nwant %+v", label, w.Bin, g, w)
		}
	}
}

// TestEngineMatchesSequentialReference pins the engine — one shard and
// several alike — to the independent reference loop, bit for bit, for
// both flow definitions.
func TestEngineMatchesSequentialReference(t *testing.T) {
	pkts := makePackets(t, 20, 120, 3)
	const binSec, topT, rate = 5.0, 8, 0.2
	aggs := []flow.Aggregator{flow.FiveTuple{}, flow.DstPrefix{Bits: 24}}
	for _, agg := range aggs {
		want := referenceBins(pkts, agg, sampler.NewBernoulli(rate, 9), binSec, topT)
		if len(want) < 3 {
			t.Fatalf("agg %v: degenerate trace: only %d bins", agg, len(want))
		}
		for _, workers := range []int{1, 4} {
			cfg := Config{
				Agg:        agg,
				Sampler:    sampler.NewBernoulli(rate, 9),
				BinSeconds: binSec,
				TopT:       topT,
				Workers:    workers,
			}
			got := runEngine(t, cfg, pkts)
			compareBins(t, fmt.Sprintf("agg %v workers %d", agg, workers), got, want)
		}
	}
}

// TestFeedBlocks: feeding the packets in blocks — of one, of a few, of the
// pipeline's 256, of the whole trace — measures what feeding them one by
// one does, also when the emit callback retunes the sampler between two
// packets of one block (the rate a packet is sampled at is whatever the
// bin boundary before it left); and an emit error stops the block at the
// boundary that failed, the packets after it unaccounted. Both samplers
// run: Bernoulli retuned in P, Periodic in its period.
func TestFeedBlocks(t *testing.T) {
	pkts := makePackets(t, 20, 120, 5)
	samplers := []struct {
		name   string
		new    func() sampler.Sampler
		retune func(s sampler.Sampler, bin int64) // as the adaptive loop does
	}{
		{"bernoulli", func() sampler.Sampler { return sampler.NewBernoulli(0.3, 9) }, func(s sampler.Sampler, bin int64) {
			s.(*sampler.Bernoulli).P = 0.1 + 0.2*float64(bin%3)
		}},
		{"periodic", func() sampler.Sampler { return sampler.NewPeriodic(3, 9) }, func(s sampler.Sampler, bin int64) {
			s.(*sampler.Periodic).Every = 2 + int(bin%3)*5
		}},
	}
	for _, smp := range samplers {
		run := func(block int, failBin int64) ([]BinResult, error) {
			s := smp.new()
			var out []BinResult
			eng, err := NewEngine(Config{Agg: flow.FiveTuple{}, Sampler: s, BinSeconds: 3, TopT: 6, Workers: 2}, func(b BinResult) error {
				if b.Bin == failBin {
					return errors.New("boom")
				}
				out = append(out, b)
				smp.retune(s, b.Bin)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for rest := pkts; len(rest) > 0; {
				n := min(block, len(rest))
				if err := eng.Feed(rest[:n]...); err != nil {
					eng.Abort()
					return out, err
				}
				rest = rest[n:]
			}
			return out, eng.Close()
		}
		want, err := run(1, -1)
		if err != nil || len(want) < 5 {
			t.Fatalf("%s, one by one: %d bins, %v", smp.name, len(want), err)
		}
		for _, block := range []int{2, 7, 256, len(pkts)} {
			got, err := run(block, -1)
			if err != nil {
				t.Fatal(err)
			}
			compareBins(t, fmt.Sprintf("%s, blocks of %d", smp.name, block), got, want)
			got, err = run(block, 3)
			if err == nil || len(got) != 3 {
				t.Fatalf("%s, blocks of %d, emit failing on bin 3: %d bins, %v", smp.name, block, len(got), err)
			}
			compareBins(t, fmt.Sprintf("%s, blocks of %d, failing", smp.name, block), got, want[:3])
		}
	}
}

// TestEngineWorkerCountInvariance: any worker count and batch size must
// produce the same bin stream as one worker at the default batch — the cross-check
// that the sharded merge is exact.
func TestEngineWorkerCountInvariance(t *testing.T) {
	pkts := makePackets(t, 15, 150, 11)
	base := func() Config {
		return Config{
			Agg:        flow.FiveTuple{},
			Sampler:    sampler.NewBernoulli(0.15, 21),
			BinSeconds: 5,
			TopT:       10,
			Workers:    1,
		}
	}
	want := runEngine(t, base(), pkts)
	for _, workers := range []int{2, 3, 4, 8} {
		for _, batch := range []int{1, 7, 512, 2047, 2048} {
			cfg := base()
			cfg.Workers = workers
			cfg.batchSize = batch
			got := runEngine(t, cfg, pkts)
			compareBins(t, fmt.Sprintf("workers=%d batch=%d", workers, batch), got, want)
		}
	}
}

// TestEngineInversionInvariance: the optional per-bin inversion joins the
// engine's bit-identical contract — Workers in {1, 4} and any batch size
// must hand over exactly equal estimates and errors for every estimator,
// even though the sampled counts reach the inverter in the shards' table
// order, which changes with the worker count. The runs are compared
// before any quantile is read: a tail Mixture builds its quantile atlas on
// the first read, so a read on one side only would differ in that cache.
func TestEngineInversionInvariance(t *testing.T) {
	pkts := makePackets(t, 15, 200, 13)
	base := func(est invert.Estimator) Config {
		return Config{
			Agg:        flow.FiveTuple{},
			Sampler:    sampler.NewBernoulli(0.1, 29),
			BinSeconds: 5,
			TopT:       10,
			Workers:    1,
			Inverter:   est,
		}
	}
	for _, est := range []invert.Estimator{invert.Naive{}, invert.TailScaling{}, invert.EM{}, invert.Parametric{}} {
		want := runEngine(t, base(est), pkts)
		if len(want) < 3 {
			t.Fatalf("%s: degenerate trace: only %d bins", est.Name(), len(want))
		}
		for _, workers := range []int{4} {
			for _, batch := range []int{3, 512, 2047, 2048} {
				cfg := base(est)
				cfg.Workers = workers
				cfg.batchSize = batch
				got := runEngine(t, cfg, pkts)
				compareBins(t, fmt.Sprintf("%s workers=%d batch=%d", est.Name(), workers, batch), got, want)
			}
		}
		inverted := 0
		for _, b := range want {
			if (b.Inversion == nil) == (b.InversionErr == nil) {
				t.Fatalf("%s: bin %d has estimate %v and error %v, want exactly one", est.Name(), b.Bin, b.Inversion, b.InversionErr)
			}
			if b.InversionErr != nil {
				continue // too few flows for this estimator: still deterministic
			}
			inverted++
			if e := b.Inversion; !(e.Mean > 0) || !(e.FlowCount >= float64(b.SampledFlows)) {
				t.Errorf("%s: bin %d implausible estimate %+v (sampled flows %d)",
					est.Name(), b.Bin, e, b.SampledFlows)
			}
			q := []float64{0.5, 0.1, 0.01, 0.001}
			for i := range q {
				q[i] = b.Inversion.Dist.QuantileCCDF(q[i])
			}
			if !slices.IsSorted(q) {
				t.Errorf("%s: bin %d size quantiles not ascending: %v", est.Name(), b.Bin, q)
			}
		}
		if inverted == 0 {
			t.Fatalf("%s: no bin produced a successful inversion", est.Name())
		}
	}
}

// TestEngineSkipsEmptyBinsInConstantTime: a packet at a far-future
// timestamp must advance the bin index directly, not walk through
// billions of empty flushes (the old flowtop loop would effectively hang).
// The test budget enforces the O(1) behaviour: walking 1e15 bins would
// never finish.
func TestEngineSkipsEmptyBinsInConstantTime(t *testing.T) {
	mk := func(key byte, time float64) packet.Packet {
		return packet.Packet{Time: time, Key: flow.Key{Src: flow.Addr{10, 0, 0, key}}, Size: 100}
	}
	for _, workers := range []int{1, 4} {
		var out []BinResult
		eng, err := NewEngine(Config{
			Agg:        flow.FiveTuple{},
			Sampler:    sampler.NewBernoulli(1, 1),
			BinSeconds: 1,
			TopT:       3,
			Workers:    workers,
		}, func(b BinResult) error {
			out = append(out, b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []packet.Packet{mk(1, 0.5), mk(2, 1e15), mk(2, 1e15+0.25)} {
			if err := eng.Feed(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if len(out) != 2 {
			t.Fatalf("workers=%d: %d bins, want 2", workers, len(out))
		}
		if out[0].Bin != 0 || out[1].Bin != 1e15 {
			t.Fatalf("workers=%d: bins %d, %d; want 0, 1e15", workers, out[0].Bin, out[1].Bin)
		}
		if out[1].OrigPackets != 2 {
			t.Fatalf("workers=%d: far bin has %d packets", workers, out[1].OrigPackets)
		}
	}
}

// TestEngineFarFutureClamp: past 2^53 bins the quotient is no longer an
// exact integer; such timestamps collapse into one clamped final bin
// instead of overflowing or spinning.
func TestEngineFarFutureClamp(t *testing.T) {
	var out []BinResult
	eng, err := NewEngine(Config{
		Agg:        flow.FiveTuple{},
		Sampler:    sampler.NewBernoulli(0, 1),
		BinSeconds: 1,
		TopT:       1,
		Workers:    1,
	}, func(b BinResult) error {
		out = append(out, b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Several increasing far-future timestamps, +Inf last, must all
	// accumulate into the single clamped bin, not re-trigger the boundary
	// and emit duplicate bins with the same index.
	for _, tm := range []float64{1e30, 1e30 + 1, 2e30, 1e100, math.Inf(1)} {
		p := packet.Packet{Time: tm, Key: flow.Key{Src: flow.Addr{1, 2, 3, 4}}, Size: 1}
		if err := eng.Feed(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Bin != 1<<53 {
		t.Fatalf("bins %+v, want one clamped bin at 2^53", out)
	}
	if out[0].OrigPackets != 5 {
		t.Fatalf("clamped bin has %d packets, want 5", out[0].OrigPackets)
	}
}

// TestEngineEmitError: an emit failure must surface from Feed (or Close),
// poison further Feeds, and still release the workers.
func TestEngineEmitError(t *testing.T) {
	pkts := makePackets(t, 12, 100, 5)
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		bins := 0
		eng, err := NewEngine(Config{
			Agg:        flow.FiveTuple{},
			Sampler:    sampler.NewBernoulli(0.5, 2),
			BinSeconds: 4,
			TopT:       5,
			Workers:    workers,
		}, func(BinResult) error {
			bins++
			if bins == 2 {
				return boom
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var ferr error
		for _, p := range pkts {
			if ferr = eng.Feed(p); ferr != nil {
				break
			}
		}
		if !errors.Is(ferr, boom) {
			t.Fatalf("workers=%d: Feed error = %v, want wrapped boom", workers, ferr)
		}
		if err := eng.Feed(pkts[0]); !errors.Is(err, boom) {
			t.Fatalf("workers=%d: Feed after failure = %v", workers, err)
		}
		if err := eng.Close(); !errors.Is(err, boom) {
			t.Fatalf("workers=%d: Close = %v, want boom", workers, err)
		}
	}
}

// TestEngineBatching: the reader holds each shard's packets in a batch
// until it fills, so every way a bin can end must first ingest — or, for
// an aborted run, drop — what is pending. Ten packets, three per
// one-second bin, one flow per bin: with one worker and a batch of 7 the
// first hand-off happens only when the third bin is half fed; with three
// workers the flows' batches fill apart, shard by shard.
func TestEngineBatching(t *testing.T) {
	feed := func(eng *Engine, n int) error {
		for i := 0; i < n; i++ {
			p := packet.Packet{Time: float64(i) / 3, Key: flow.Key{Src: flow.Addr{10, 0, 0, byte(i / 3)}}, Size: 100}
			if err := eng.Feed(p); err != nil {
				return err
			}
		}
		return nil
	}
	boom := errors.New("boom")
	for _, c := range []struct{ workers, batch int }{
		{1, 1}, {1, 7}, {1, 512}, {1, 2047}, {1, 2048}, {3, 1}, {3, 7}, {3, 2048},
	} {
		workers, batch := c.workers, c.batch
		var out []BinResult
		var emitErr error
		stats := obs.NewPipelineStats(workers)
		mk := func() *Engine {
			out = nil
			eng, err := NewEngine(Config{
				Agg:        flow.FiveTuple{},
				Sampler:    sampler.NewBernoulli(1, 1),
				BinSeconds: 1,
				TopT:       2,
				Workers:    workers,
				batchSize:  batch,
				Obs:        stats,
			}, func(b BinResult) error {
				out = append(out, b)
				return emitErr
			})
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}

		// A boundary in the middle of a batch puts every packet in its own
		// bin, and Close ingests the partial last batch.
		eng := mk()
		if err := feed(eng, 10); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if len(out) != 4 {
			t.Fatalf("workers=%d batch=%d: %d bins, want 4", workers, batch, len(out))
		}
		for i, b := range out {
			wantPkts := int64(3)
			if i == 3 {
				wantPkts = 1
			}
			if b.Bin != int64(i) || b.OrigPackets != wantPkts || b.SampledPackets != wantPkts ||
				b.Flows != 1 || b.OrigTop[0].Key.Src[3] != byte(i) || b.OrigTop[0].Packets != wantPkts {
				t.Fatalf("workers=%d batch=%d: bin %d = %+v, want its own %d packets of flow %d", workers, batch, i, b, wantPkts, i)
			}
		}
		if got := stats.ShardPackets(); got != 10 {
			t.Fatalf("workers=%d batch=%d: shards ingested %d packets after Close, want 10", workers, batch, got)
		}

		// Abort drops the pending batch with the rest of the partial bin.
		eng = mk()
		if err := feed(eng, 5); err != nil {
			t.Fatal(err)
		}
		eng.Abort()
		if err := eng.Close(); err != nil || len(out) != 1 {
			t.Fatalf("workers=%d batch=%d: Abort then Close = %v with %d bins emitted, want nil and bin 0 only", workers, batch, err, len(out))
		}

		// An emit error surfaces from the Feed that crossed the boundary
		// and from every Feed after it.
		eng, emitErr = mk(), boom
		if err := feed(eng, 10); !errors.Is(err, boom) {
			t.Fatalf("workers=%d batch=%d: Feed across a failing bin = %v, want boom", workers, batch, err)
		}
		if err := feed(eng, 1); !errors.Is(err, boom) {
			t.Fatalf("workers=%d batch=%d: Feed after the failure = %v, want boom", workers, batch, err)
		}
		if err := eng.Close(); !errors.Is(err, boom) || len(out) != 1 {
			t.Fatalf("workers=%d batch=%d: Close = %v after %d bins, want boom after 1", workers, batch, err, len(out))
		}
	}
}

// shardWorkers counts the live goroutines that NewEngineContext started
// when the calling goroutine called it — the shard workers of the caller's
// own engines, each running its shard's loop — by their creation frame,
// which a worker not yet scheduled (its stack still the go statement's
// wrapper) carries too, with the id of the goroutine whose go statement
// started it. Workers of an engine another test left unreleased were
// created by another goroutine and are not counted. A worker calls
// wg.Done on its way out of the loop, so on one P none is left once
// shutdown's Wait has returned: the last one to call Done runs on to its
// exit before the waiter is scheduled.
func shardWorkers() int {
	self := make([]byte, 64)
	self = self[:runtime.Stack(self, false)]
	// The trace starts "goroutine <id> [running]:".
	id, _, ok := bytes.Cut(bytes.TrimPrefix(self, []byte("goroutine ")), []byte(" "))
	if !ok {
		panic(fmt.Sprintf("unexpected stack header %q", self))
	}
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	frame := "\ncreated by flowrank/internal/stream.NewEngineContext in goroutine " + string(id) + "\n"
	return bytes.Count(buf[:n], []byte(frame))
}

// TestEngineWorkersExit: an engine runs one worker goroutine per shard, a
// lone shard included, from NewEngine until it is released — by Close,
// Abort, a context cancellation seen by Feed, or a failed emit followed by
// Close. Nothing sleeps: release waits for the workers itself.
func TestEngineWorkersExit(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	boom := errors.New("boom")
	ends := []struct {
		name    string
		emitErr error
		end     func(eng *Engine, cancel context.CancelFunc) error
	}{
		{"Close", nil, func(eng *Engine, _ context.CancelFunc) error { return eng.Close() }},
		{"Abort", nil, func(eng *Engine, _ context.CancelFunc) error { eng.Abort(); return nil }},
		{"cancel", nil, func(eng *Engine, cancel context.CancelFunc) error {
			cancel()
			if err := eng.Feed(pkt(0.5, 99)); !errors.Is(err, context.Canceled) {
				return fmt.Errorf("Feed after cancel = %v, want context.Canceled", err)
			}
			return nil
		}},
		{"emit error", boom, func(eng *Engine, _ context.CancelFunc) error {
			if err := eng.Feed(pkt(1.5, 99)); !errors.Is(err, boom) {
				return fmt.Errorf("Feed across a failing bin = %v, want boom", err)
			}
			if err := eng.Close(); !errors.Is(err, boom) {
				return fmt.Errorf("Close after a failed emit = %v, want boom", err)
			}
			return nil
		}},
	}
	for _, workers := range []int{1, 3} {
		for _, c := range ends {
			ctx, cancel := context.WithCancel(context.Background())
			eng, err := NewEngineContext(ctx, testConfig(workers), func(BinResult) error { return c.emitErr })
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if err := eng.Feed(pkt(0.1+float64(i)*0.01, byte(i))); err != nil {
					t.Fatal(err)
				}
			}
			if got := shardWorkers(); got != workers {
				t.Errorf("workers=%d %s: %d shard workers while running, want %d", workers, c.name, got, workers)
			}
			if err := c.end(eng, cancel); err != nil {
				t.Errorf("workers=%d %s: %v", workers, c.name, err)
			}
			if got := shardWorkers(); got != 0 {
				t.Errorf("workers=%d %s: %d shard workers left after release", workers, c.name, got)
			}
			cancel()
		}
	}
}

// TestEngineAbortSkipsPartialBin: Abort must release the workers without
// emitting the half-ingested final bin.
func TestEngineAbortSkipsPartialBin(t *testing.T) {
	for _, workers := range []int{1, 4} {
		emitted := 0
		eng, err := NewEngine(Config{
			Agg:        flow.FiveTuple{},
			Sampler:    sampler.NewBernoulli(1, 1),
			BinSeconds: 10,
			TopT:       3,
			Workers:    workers,
		}, func(BinResult) error {
			emitted++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			p := packet.Packet{Time: float64(i), Key: flow.Key{Src: flow.Addr{1, 1, 1, byte(i)}}, Size: 10}
			if err := eng.Feed(p); err != nil {
				t.Fatal(err)
			}
		}
		eng.Abort()
		if emitted != 0 {
			t.Fatalf("workers=%d: Abort emitted %d bins", workers, emitted)
		}
		if err := eng.Feed(packet.Packet{}); err == nil {
			t.Fatalf("workers=%d: Feed after Abort accepted", workers)
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("workers=%d: Close after Abort = %v", workers, err)
		}
		if emitted != 0 {
			t.Fatalf("workers=%d: Close after Abort emitted %d bins", workers, emitted)
		}
	}
}

func TestEngineFeedAfterClose(t *testing.T) {
	eng, err := NewEngine(Config{
		Agg:        flow.FiveTuple{},
		Sampler:    sampler.NewBernoulli(1, 1),
		BinSeconds: 1,
		Workers:    2,
	}, func(BinResult) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
	if err := eng.Feed(packet.Packet{}); err == nil {
		t.Fatal("Feed after Close accepted")
	}
}

func TestEngineConfigValidation(t *testing.T) {
	emit := func(BinResult) error { return nil }
	smp := sampler.NewBernoulli(0.5, 1)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"missing agg", Config{Sampler: smp, BinSeconds: 1}},
		{"missing sampler", Config{Agg: flow.FiveTuple{}, BinSeconds: 1}},
		{"zero bin", Config{Agg: flow.FiveTuple{}, Sampler: smp}},
		{"negative bin", Config{Agg: flow.FiveTuple{}, Sampler: smp, BinSeconds: -1}},
		{"negative topT", Config{Agg: flow.FiveTuple{}, Sampler: smp, BinSeconds: 1, TopT: -1}},
		{"negative workers", Config{Agg: flow.FiveTuple{}, Sampler: smp, BinSeconds: 1, Workers: -2}},
	}
	for _, c := range cases {
		if _, err := NewEngine(c.cfg, emit); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := NewEngine(Config{Agg: flow.FiveTuple{}, Sampler: smp, BinSeconds: 1}, nil); err == nil {
		t.Error("nil emit accepted")
	}
}

// TestDefaultBatch: a zero batchSize resolves to 2048 at every worker
// count, and an explicit size is honoured at each.
func TestDefaultBatch(t *testing.T) {
	for _, c := range []struct{ workers, batch, want int }{
		{1, 0, 2048}, {2, 0, 2048}, {4, 0, 2048},
		{1, 100, 100}, {2, 100, 100}, {4, 100, 100},
		{1, 4096, 4096}, {2, 4096, 4096}, {4, 4096, 4096},
	} {
		eng, err := NewEngine(Config{
			Agg:        flow.FiveTuple{},
			Sampler:    sampler.NewBernoulli(0.5, 1),
			BinSeconds: 1,
			Workers:    c.workers,
			batchSize:  c.batch,
		}, func(BinResult) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.cfg.batchSize; got != c.want {
			t.Errorf("workers=%d batchSize=%d: engine batches %d packets, want %d", c.workers, c.batch, got, c.want)
		}
		if got := cap(eng.pending[0].all); got != c.want {
			t.Errorf("workers=%d batchSize=%d: pending batch holds %d packets, want %d", c.workers, c.batch, got, c.want)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardChoiceMatchesModulo: the mask Feed takes for a power-of-two
// worker count picks the shard hash % Workers picks, so no key moved when
// the division went — sketch results depend on the partition.
func TestShardChoiceMatchesModulo(t *testing.T) {
	g := randx.New(24)
	hashes := make([]uint64, 100_000)
	for i := range hashes {
		hashes[i] = g.Uint64()
	}
	hashes[0], hashes[1] = 0, ^uint64(0)
	for w := 1; w <= 16; w++ {
		e := &Engine{shards: make([]*shard, w)}
		for _, h := range hashes {
			if got, want := e.shardOf(h), int(h%uint64(w)); got != want {
				t.Fatalf("workers=%d hash=%#x: shard %d, want %d", w, h, got, want)
			}
		}
	}
}

// TestEngineBinTotals sanity-checks the merged totals against the fed
// packets, independently of the reference implementation.
func TestEngineBinTotals(t *testing.T) {
	pkts := makePackets(t, 10, 100, 7)
	var total, bytes int64
	for _, p := range pkts {
		total++
		bytes += int64(p.Size)
	}
	var gotPkts, gotBytes int64
	out := runEngine(t, Config{
		Agg:        flow.FiveTuple{},
		Sampler:    sampler.NewBernoulli(0.1, 4),
		BinSeconds: 2.5,
		TopT:       5,
		Workers:    4,
	}, pkts)
	for _, b := range out {
		gotPkts += b.OrigPackets
		gotBytes += b.OrigBytes
		if b.SampledPackets > b.OrigPackets {
			t.Fatalf("bin %d: sampled %d > original %d", b.Bin, b.SampledPackets, b.OrigPackets)
		}
		if len(b.SampledTop) != min(5, b.SampledFlows) {
			t.Fatalf("bin %d: %d sampled top flows of %d sampled flows, want min(5, %d)",
				b.Bin, len(b.SampledTop), b.SampledFlows, b.SampledFlows)
		}
	}
	if gotPkts != total || gotBytes != bytes {
		t.Fatalf("totals %d pkts / %d bytes, want %d / %d", gotPkts, gotBytes, total, bytes)
	}
}
