package flowrank

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestObservabilityFacade drives a streaming run through the facade with
// PipelineStats attached and a journal record written and re-validated:
// the observability surface (NewPipelineStats, StageNanos, NewBinJournal,
// BinJournalRecord, ValidateBinJournal) must hang together end-to-end,
// and attaching instrumentation must not change the engine's output.
func TestObservabilityFacade(t *testing.T) {
	pkts := facadePackets(t)

	run := func(stats *PipelineStats) []StreamBin {
		cfg := StreamConfig{
			Agg:        FiveTuple{},
			Sampler:    NewBernoulli(0.5, 11),
			BinSeconds: 2,
			TopT:       5,
			Workers:    2,
			Obs:        stats,
		}
		var bins []StreamBin
		eng, err := NewStreamEngine(cfg, func(b StreamBin) error {
			bins = append(bins, b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		feedAll(t, eng, pkts)
		return bins
	}

	stats := NewPipelineStats(2)
	plain, observed := run(nil), run(stats)
	if len(observed) == 0 || len(observed) != len(plain) {
		t.Fatalf("got %d bins with obs, %d without", len(observed), len(plain))
	}
	for i := range plain {
		if plain[i].Flows != observed[i].Flows || plain[i].OrigPackets != observed[i].OrigPackets {
			t.Fatalf("bin %d differs with instrumentation attached", i)
		}
	}
	if got := stats.ShardPackets(); got != int64(len(pkts)) {
		t.Errorf("ShardPackets = %d, want %d", got, len(pkts))
	}
	// The engine times barrier, merge and invert into each bin it emits —
	// with stats attached or not — and leaves emit and total to the
	// callback.
	var flush StageNanos
	for i, b := range observed {
		for _, st := range []StageNanos{b.Stages, plain[i].Stages} {
			if st.Barrier <= 0 || st.Emit != 0 || st.Total != 0 {
				t.Errorf("bin %d stage timings: %+v with stats, %+v without", i, b.Stages, plain[i].Stages)
			}
		}
		flush.Barrier += b.Stages.Barrier
	}
	if got := stats.Flush.Barrier.Snapshot().Sum; got != flush.Barrier {
		t.Errorf("bins' barrier timings sum to %d ns, the histogram to %d", flush.Barrier, got)
	}

	var buf bytes.Buffer
	journal := NewBinJournal(&buf)
	for i, b := range observed {
		rec := BinJournalRecord{
			Bin:            int64(i),
			Start:          b.Start,
			End:            b.End,
			Table:          "exact",
			Flows:          b.Flows,
			SampledFlows:   b.SampledFlows,
			OrigPackets:    b.OrigPackets,
			SampledPackets: b.SampledPackets,
			SamplingRate:   0.5,
			Stages:         &b.Stages,
		}
		journal.Info("bin", "record", rec)
	}
	bins, err := ValidateBinJournal(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("journal invalid: %v", err)
	}
	if bins != len(observed) {
		t.Errorf("ValidateBinJournal = %d bins, want %d", bins, len(observed))
	}
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes()[:bytes.IndexByte(buf.Bytes(), '\n')], &line); err != nil {
		t.Fatalf("journal line not JSON: %v", err)
	}
}

// feedAll feeds the packets to the engine in order and closes it.
func feedAll(tb testing.TB, eng *StreamEngine, pkts []Packet) {
	tb.Helper()
	for _, p := range pkts {
		if err := eng.Feed(p); err != nil {
			tb.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		tb.Fatal(err)
	}
}
