package stream

import (
	"strings"
	"sync"
	"testing"

	"flowrank/internal/flow"
	"flowrank/internal/invert"
	"flowrank/internal/obs"
	"flowrank/internal/packet"
	"flowrank/internal/sampler"
)

// obsConfig builds a Config with instrumentation attached.
func obsConfig(workers int, inverter invert.Estimator) (Config, *obs.PipelineStats) {
	stats := obs.NewPipelineStats(workers)
	return Config{
		Agg:        flow.FiveTuple{},
		Sampler:    sampler.NewBernoulli(0.3, 11),
		BinSeconds: 5,
		TopT:       8,
		Workers:    workers,
		Inverter:   inverter,
		Obs:        stats,
	}, stats
}

// TestEngineObsOutputInvariant is the acceptance pin: attaching stats
// must not change a single bit of the engine's output, for any worker
// count, and the engine times every bin's flush either way.
func TestEngineObsOutputInvariant(t *testing.T) {
	pkts := makePackets(t, 20, 150, 5)
	for _, workers := range []int{1, 4} {
		plain := Config{
			Agg:        flow.FiveTuple{},
			Sampler:    sampler.NewBernoulli(0.3, 11),
			BinSeconds: 5,
			TopT:       8,
			Workers:    workers,
			Inverter:   invert.Naive{},
		}
		want := runEngine(t, plain, pkts)
		instr, _ := obsConfig(workers, invert.Naive{})
		got := runEngine(t, instr, pkts)
		for label, bins := range map[string][]BinResult{"without Config.Obs": want, "with Config.Obs": got} {
			for _, b := range bins {
				if b.Stages.Barrier <= 0 || b.Stages.Emit != 0 || b.Stages.Total != 0 {
					t.Errorf("workers=%d bin %d %s: stage timings %+v", workers, b.Bin, label, b.Stages)
				}
			}
		}
		compareBins(t, "obs-on vs obs-off", got, want)
	}
}

// TestEngineObsTelemetry: the recorded pipeline numbers must account for
// every packet, batch and bin the engine processed.
func TestEngineObsTelemetry(t *testing.T) {
	pkts := makePackets(t, 20, 150, 5)
	for _, workers := range []int{1, 4} {
		cfg, stats := obsConfig(workers, invert.Naive{})
		bins := runEngine(t, cfg, pkts)
		if got := stats.ShardPackets(); got != int64(len(pkts)) {
			t.Errorf("workers=%d: shard packets %d, want %d", workers, got, len(pkts))
		}
		for _, h := range map[string]*obs.Histogram{
			"barrier": stats.Flush.Barrier,
			"merge":   stats.Flush.Merge,
			"invert":  stats.Flush.Invert,
			"total":   stats.Flush.Total,
		} {
			if got := h.Count(); got != uint64(len(bins)) {
				t.Errorf("workers=%d: stage histogram count %d, want %d bins", workers, got, len(bins))
			}
		}
		// Each bin carries the stage timings the histograms accumulated;
		// emit and total time the callback and are the callback's to fill.
		var st obs.StageNanos
		for _, b := range bins {
			if b.Stages.Emit != 0 || b.Stages.Total != 0 {
				t.Errorf("workers=%d bin %d: engine filled emit/total: %+v", workers, b.Bin, b.Stages)
			}
			st.Barrier += b.Stages.Barrier
			st.Merge += b.Stages.Merge
			st.Invert += b.Stages.Invert
		}
		hist := obs.StageNanos{
			Barrier: stats.Flush.Barrier.Snapshot().Sum,
			Merge:   stats.Flush.Merge.Snapshot().Sum,
			Invert:  stats.Flush.Invert.Snapshot().Sum,
		}
		if st != hist {
			t.Errorf("workers=%d: bins' stages sum to %+v, the histograms to %+v", workers, st, hist)
		}
		if total := stats.Flush.Total.Snapshot().Sum; total < st.Barrier+st.Merge+st.Invert {
			t.Errorf("workers=%d: total %dns below barrier+merge+invert %dns", workers, total, st.Barrier+st.Merge+st.Invert)
		}
		var shardBatches int64
		for i := range stats.Shards {
			shardBatches += stats.Shards[i].Batches.Load()
		}
		if stats.Reader.Batches.Load() == 0 || shardBatches == 0 {
			t.Errorf("workers=%d: no batches recorded (reader %d, shards %d)",
				workers, stats.Reader.Batches.Load(), shardBatches)
		}
		if stats.Reader.Batches.Load() != shardBatches {
			t.Errorf("workers=%d: reader dispatched %d batches, shards ingested %d",
				workers, stats.Reader.Batches.Load(), shardBatches)
		}
		if stats.Reader.Dispatch.Count() != uint64(stats.Reader.Batches.Load()) {
			t.Errorf("workers=%d: dispatch latency observations %d != dispatched batches %d",
				workers, stats.Reader.Dispatch.Count(), stats.Reader.Batches.Load())
		}
		if got := stats.IngestSnapshot().Count(); got != uint64(shardBatches) {
			t.Errorf("workers=%d: ingest observations %d != shard batches %d", workers, got, shardBatches)
		}
	}
}

// TestEngineObsShardMismatch: a stats block sized below the worker count
// is a configuration error, not a silent truncation.
func TestEngineObsShardMismatch(t *testing.T) {
	cfg, _ := obsConfig(4, nil)
	cfg.Obs = obs.NewPipelineStats(2)
	_, err := NewEngine(cfg, func(BinResult) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "NewPipelineStats") {
		t.Fatalf("NewEngine = %v, want shard-mismatch error naming the fix", err)
	}
}

// TestEngineFeedAllocFreeWithObs is the hot-path half of the tentpole
// contract: a steady-state packet costs zero heap allocations, timed and
// counted — on a one-worker engine at the default batch, with the stats
// the caller attached or with the engine's own, and on a two-worker one
// at p = 0.5 and 64-packet batches. In all of them about half the
// batches keep more packets than the capacity their kept buffer started
// with: it grows by append once, and the batch comes back from the
// worker with what it grew to.
func TestEngineFeedAllocFreeWithObs(t *testing.T) {
	pkts := makePackets(t, 4, 200, 9) // one bin's worth: no flush mid-measurement
	for _, c := range []struct {
		name           string
		workers, batch int
		p              float64
		ownStats       bool
	}{
		{"one worker", 1, 0, 0.3, false},
		{"default config", 1, 0, 0.3, true},
		{"sharded", 2, 64, 0.5, false},
	} {
		cfg, _ := obsConfig(c.workers, nil)
		if c.ownStats {
			cfg.Obs = nil
		}
		cfg.Sampler = sampler.NewBernoulli(c.p, 11)
		cfg.batchSize = c.batch
		cfg.Recycle = true
		eng, err := NewEngine(cfg, func(BinResult) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		firstCap := cap(eng.pending[0].kept)
		feed := func(p packet.Packet) {
			if err := eng.Feed(p); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range pkts { // warm the tables and the batches in flight
			feed(p)
		}
		// Go on until the batches Feed is filling are ones that came back
		// from the workers grown (a hand-off that found no spent batch starts
		// a new one at the first capacity; passes stay in the warm bin).
		grown := func() bool {
			for s := range eng.pending {
				if cap(eng.pending[s].kept) <= firstCap {
					return false
				}
			}
			return true
		}
		for pass := 0; !grown(); pass++ {
			if pass == 20 {
				t.Fatalf("%s: kept capacity still %d after %d hand-offs: nothing grew, or growth is not recycled",
					c.name, firstCap, 20*len(pkts)/eng.cfg.batchSize)
			}
			for _, p := range pkts {
				p.Time = 4.5
				feed(p)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(2000, func() {
			p := pkts[i%len(pkts)]
			p.Time = 4.5 // stay inside the warm bin
			feed(p)
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: Feed allocates %.2f/packet, want 0", c.name, allocs)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineObsConcurrentScrape races scrapes (snapshots, counter loads)
// against a multi-worker engine crossing bin flushes — the -race CI job
// proves a scrape during a flush barrier never tears.
func TestEngineObsConcurrentScrape(t *testing.T) {
	pkts := makePackets(t, 20, 150, 7)
	cfg, stats := obsConfig(4, nil)
	cfg.batchSize = 32 // many dispatches, many flush barriers
	stop := make(chan struct{})
	var rd sync.WaitGroup
	rd.Add(1)
	go func() {
		defer rd.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = stats.IngestSnapshot()
				_ = stats.Flush.Total.Snapshot()
				_ = stats.Shards[0].Depth.Load()
				_ = stats.Reader.Stalls.Load()
			}
		}
	}()
	eng, err := NewEngine(cfg, func(BinResult) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	var p packet.Packet
	for _, p = range pkts {
		if err := eng.Feed(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	rd.Wait()
	if got := stats.ShardPackets(); got != int64(len(pkts)) {
		t.Errorf("shard packets %d, want %d", got, len(pkts))
	}
}
