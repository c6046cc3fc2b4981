package packetgen

import (
	"math"
	"strings"
	"testing"

	"flowrank/internal/flow"
	"flowrank/internal/packet"
	"flowrank/internal/randx"
	"flowrank/internal/tracegen"
)

func testRecords(t *testing.T, seconds float64, seed uint64) []flow.Record {
	t.Helper()
	recs, err := tracegen.Generate(tracegen.SprintFiveTuple(seconds, seed))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestStreamOrderingAndConservation(t *testing.T) {
	recs := testRecords(t, 5, 1)
	perFlowPkts := map[flow.Key]int{}
	perFlowBytes := map[flow.Key]int64{}
	last := math.Inf(-1)
	total := 0
	err := Stream(recs, 42, func(p packet.Packet) error {
		if p.Time < last {
			t.Fatalf("packet out of order: %g after %g", p.Time, last)
		}
		last = p.Time
		perFlowPkts[p.Key]++
		perFlowBytes[p.Key] += int64(p.Size)
		total++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTotal := 0
	for _, r := range recs {
		wantTotal += r.Packets
		if perFlowPkts[r.Key] != r.Packets {
			t.Fatalf("flow %v emitted %d packets, want %d", r.Key, perFlowPkts[r.Key], r.Packets)
		}
		if perFlowBytes[r.Key] != r.Bytes {
			t.Fatalf("flow %v emitted %d bytes, want %d", r.Key, perFlowBytes[r.Key], r.Bytes)
		}
	}
	if total != wantTotal {
		t.Errorf("total packets %d, want %d", total, wantTotal)
	}
}

func TestStreamTimesWithinLifetime(t *testing.T) {
	recs := testRecords(t, 3, 2)
	byKey := map[flow.Key]flow.Record{}
	for _, r := range recs {
		byKey[r.Key] = r
	}
	err := Stream(recs, 7, func(p packet.Packet) error {
		r := byKey[p.Key]
		if p.Time < r.Start-1e-9 || p.Time > r.End()+1e-9 {
			t.Fatalf("packet at %g outside [%g, %g]", p.Time, r.Start, r.End())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStreamDeterministic(t *testing.T) {
	recs := testRecords(t, 2, 3)
	var a, b []packet.Packet
	Stream(recs, 5, func(p packet.Packet) error { a = append(a, p); return nil })
	Stream(recs, 5, func(p packet.Packet) error { b = append(b, p); return nil })
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestStreamAbortsOnError(t *testing.T) {
	recs := testRecords(t, 2, 4)
	count := 0
	sentinel := func(p packet.Packet) error {
		count++
		if count == 10 {
			return errStop
		}
		return nil
	}
	if err := Stream(recs, 1, sentinel); err != errStop {
		t.Errorf("err = %v, want sentinel", err)
	}
	if count != 10 {
		t.Errorf("callback ran %d times, want 10", count)
	}
}

// TestStreamRejectsInvalidRecords: a record flow.Record.Validate refuses
// (no packets, which used to divide by zero, or a negative duration or
// start, which put packets before the flow) fails the whole stream with
// the record's index before any packet is emitted.
func TestStreamRejectsInvalidRecords(t *testing.T) {
	good := flow.Record{Start: 0.5, Duration: 1, Packets: 3, Bytes: 1500}
	for name, bad := range map[string]flow.Record{
		"zero packets":      {Start: 1, Duration: 2},
		"negative duration": {Start: 1, Duration: -2, Packets: 4, Bytes: 2000},
		"negative start":    {Start: -1, Duration: 2, Packets: 4, Bytes: 2000},
	} {
		called := false
		err := Stream([]flow.Record{good, bad}, 1, func(packet.Packet) error { called = true; return nil })
		if err == nil || !strings.HasPrefix(err.Error(), "packetgen: record 1: ") {
			t.Errorf("%s: err = %v, want packetgen: record 1: …", name, err)
		}
		if called {
			t.Errorf("%s: callback ran before the error", name)
		}
	}
}

var errStop = &stopError{}

type stopError struct{}

func (*stopError) Error() string { return "stop" }

func TestBinCountsConservation(t *testing.T) {
	recs := testRecords(t, 10, 5)
	horizon := 10.0
	g := randx.New(9)
	perFlow := map[int]int{}
	err := BinCounts(recs, 2.5, horizon, g, func(bc BinCount) error {
		if bc.Bin < 0 || bc.Bin >= NumBins(2.5, horizon) {
			t.Fatalf("bin %d out of range", bc.Bin)
		}
		perFlow[bc.Rec] += bc.Packets
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		got := perFlow[i]
		if r.End() <= horizon {
			if got != r.Packets {
				t.Fatalf("flow %d: %d packets binned, want %d", i, got, r.Packets)
			}
		} else if got > r.Packets {
			t.Fatalf("flow %d: %d packets binned, more than its %d", i, got, r.Packets)
		}
	}
}

func TestBinCountsTruncationDropsTail(t *testing.T) {
	// A flow living half inside the horizon should keep ~half its packets.
	rec := flow.Record{
		Key:   flow.Key{Src: flow.Addr{1, 1, 1, 1}},
		Start: 5, Duration: 10, Packets: 100000, Bytes: 100000 * 500,
	}
	g := randx.New(11)
	total := 0
	if err := BinCounts([]flow.Record{rec}, 5, 10, g, func(bc BinCount) error {
		total += bc.Packets
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := 50000.0
	if math.Abs(float64(total)-want) > 5*math.Sqrt(want) {
		t.Errorf("kept %d packets, want ≈ %g", total, want)
	}
}

func TestBinCountsDegenerateDuration(t *testing.T) {
	rec := flow.Record{
		Key:   flow.Key{Src: flow.Addr{1, 1, 1, 1}},
		Start: 3.2, Duration: 0, Packets: 17, Bytes: 17 * 500,
	}
	g := randx.New(12)
	got := map[int]int{}
	if err := BinCounts([]flow.Record{rec}, 1, 10, g, func(bc BinCount) error {
		got[bc.Bin] += bc.Packets
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got[3] != 17 || len(got) != 1 {
		t.Errorf("zero-duration flow binned as %v, want all 17 in bin 3", got)
	}
}

func TestBinCountsRejectsBadParams(t *testing.T) {
	if err := BinCounts(nil, 0, 10, randx.New(1), nil); err == nil {
		t.Error("zero bin width accepted")
	}
	if err := BinCounts(nil, 1, 0, randx.New(1), nil); err == nil {
		t.Error("zero horizon accepted")
	}
}

// TestStreamMatchesBinCounts cross-validates the two packet-placement
// views: binning the streamed packets must match BinCounts statistically
// (they are different realizations of the same distribution, so totals per
// bin are compared within CLT bands).
func TestStreamMatchesBinCounts(t *testing.T) {
	recs := testRecords(t, 20, 6)
	horizon, bin := 20.0, 5.0
	nBins := NumBins(bin, horizon)

	fromStream := make([]float64, nBins)
	Stream(recs, 21, func(p packet.Packet) error {
		if p.Time < horizon {
			fromStream[int(p.Time/bin)]++
		}
		return nil
	})

	fromCounts := make([]float64, nBins)
	g := randx.New(22)
	BinCounts(recs, bin, horizon, g, func(bc BinCount) error {
		fromCounts[bc.Bin] += float64(bc.Packets)
		return nil
	})

	for b := 0; b < nBins; b++ {
		diff := math.Abs(fromStream[b] - fromCounts[b])
		// Bin totals are sums over thousands of flows; allow 6 sigma with
		// sigma ≈ sqrt(total).
		tol := 6 * math.Sqrt(fromStream[b]+fromCounts[b]+1)
		if diff > tol {
			t.Errorf("bin %d: stream %g vs counts %g (tol %g)", b, fromStream[b], fromCounts[b], tol)
		}
	}
}

func BenchmarkStream(b *testing.B) {
	recs, err := tracegen.Generate(tracegen.SprintFiveTuple(2, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		Stream(recs, uint64(i), func(packet.Packet) error { n++; return nil })
	}
}

func BenchmarkBinCounts(b *testing.B) {
	recs, err := tracegen.Generate(tracegen.SprintFiveTuple(2, 1))
	if err != nil {
		b.Fatal(err)
	}
	g := randx.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BinCounts(recs, 60, 120, g, func(BinCount) error { return nil })
	}
}
