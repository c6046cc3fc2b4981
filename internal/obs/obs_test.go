package obs

import (
	"sync"
	"testing"
)

// TestCounterGauge pins the primitive semantics.
func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Errorf("counter = %d, want 5", c.Load())
	}
	var g Gauge
	g.Set(7)
	g.SetMax(3)
	if g.Load() != 7 {
		t.Errorf("gauge lowered by SetMax: %d", g.Load())
	}
	g.SetMax(11)
	if g.Load() != 11 {
		t.Errorf("SetMax did not raise: %d", g.Load())
	}
}

// TestHistogramBuckets: boundary values land in their bound's bucket
// (le is inclusive), larger ones overflow into +Inf.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 0, 1} // le=10: {5,10}, le=100: {11,100}, le=1000: {}, +Inf: {5000}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (snapshot %+v)", i, s.Counts[i], w, s)
		}
	}
	if h.Count() != 5 || s.Count() != 5 {
		t.Errorf("count = %d/%d, want 5", h.Count(), s.Count())
	}
	if h.Sum() != 5+10+11+100+5000 {
		t.Errorf("sum = %d", h.Sum())
	}
}

// TestHistogramValidation: construction-time errors panic; a zero-value
// histogram drops observations instead of crashing the pipeline.
func TestHistogramValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":    func() { NewHistogram(nil) },
		"unsorted": func() { NewHistogram([]int64{2, 1}) },
		"dup":      func() { NewHistogram([]int64{1, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds did not panic", name)
				}
			}()
			fn()
		}()
	}
	var zero Histogram
	zero.Observe(5) // must not panic
	if zero.Count() != 0 {
		t.Errorf("zero-value histogram counted an observation")
	}
}

// TestMergeHistSnapshots sums per-shard snapshots element-wise.
func TestMergeHistSnapshots(t *testing.T) {
	a, b := NewHistogram([]int64{10, 100}), NewHistogram([]int64{10, 100})
	a.Observe(5)
	a.Observe(50)
	b.Observe(500)
	m := MergeHistSnapshots(a.Snapshot(), b.Snapshot())
	if got := []uint64{m.Counts[0], m.Counts[1], m.Counts[2]}; got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Errorf("merged counts = %v", got)
	}
	if m.Sum != 555 || m.Count() != 3 {
		t.Errorf("merged sum/count = %d/%d", m.Sum, m.Count())
	}
}

// TestNanotimeMonotone: the pipeline clock never goes backwards.
func TestNanotimeMonotone(t *testing.T) {
	prev := Nanotime()
	for i := 0; i < 1000; i++ {
		now := Nanotime()
		if now < prev {
			t.Fatalf("Nanotime went backwards: %d -> %d", prev, now)
		}
		prev = now
	}
}

// TestPipelineStatsShape: preallocation and the aggregation helpers.
func TestPipelineStatsShape(t *testing.T) {
	p := NewPipelineStats(3)
	if len(p.Shards) != 3 {
		t.Fatalf("shards = %d, want 3", len(p.Shards))
	}
	p.Shards[0].Packets.Add(10)
	p.Shards[2].Packets.Add(5)
	p.Shards[1].Batches.Inc()
	p.Shards[0].Ingest.Observe(2000)
	p.Shards[2].Ingest.Observe(200_000)
	p.Shards[1].Depth.Set(4)
	if p.ShardPackets() != 15 {
		t.Errorf("aggregate packets %d, want 15", p.ShardPackets())
	}
	if b, d := p.Shards[1].Batches.Load(), p.Shards[1].Depth.Load(); b != 1 || d != 4 {
		t.Errorf("shard 1: batches %d depth %d, want 1 and 4", b, d)
	}
	if in := p.IngestSnapshot(); in.Count() != 2 || in.Sum != 202_000 {
		t.Errorf("ingest aggregate = %+v", in)
	}
	if NewPipelineStats(0).Shards == nil {
		t.Error("shard count floor missing")
	}
}

// TestUpdatePrimitivesAllocFree is the runtime side of the
// //flowrank:hotpath annotations: every update primitive must be
// 0 allocs/op, or instrumented hot paths would break the engine's
// 0-alloc-per-packet contract.
func TestUpdatePrimitivesAllocFree(t *testing.T) {
	var c Counter
	var g Gauge
	h := NewHistogram(DefaultLatencyBounds)
	cases := map[string]func(){
		"Counter.Inc":       func() { c.Inc() },
		"Counter.Add":       func() { c.Add(3) },
		"Gauge.Set":         func() { g.Set(9) },
		"Gauge.SetMax":      func() { g.SetMax(12) },
		"Histogram.Observe": func() { h.Observe(12_345) },
		"Nanotime":          func() { _ = Nanotime() },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", name, allocs)
		}
	}
}

// TestConcurrentUpdates hammers one stats block from many goroutines
// while a reader snapshots continuously — the -race CI job runs this to
// prove scrapes never tear the update path.
func TestConcurrentUpdates(t *testing.T) {
	p := NewPipelineStats(2)
	const workers, per = 8, 2000
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
				_ = p.IngestSnapshot()
				_ = p.Reader.Dispatch.Snapshot()
				_ = p.ShardPackets()
				_ = p.Shards[0].Depth.Load()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := &p.Shards[w%2]
			for i := 0; i < per; i++ {
				sh.Packets.Inc()
				sh.Ingest.Observe(int64(i))
				p.Reader.Stalls.Inc()
				p.Reader.QueueDepthMax.SetMax(int64(i % 5))
				sh.Depth.Set(int64(i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	rd.Wait()
	if got := p.ShardPackets(); got != workers*per {
		t.Errorf("packets = %d, want %d", got, workers*per)
	}
	if got := p.IngestSnapshot().Count(); got != workers*per {
		t.Errorf("ingest observations = %d, want %d", got, workers*per)
	}
	if got := p.Reader.Stalls.Load(); got != workers*per {
		t.Errorf("stalls = %d, want %d", got, workers*per)
	}
}
