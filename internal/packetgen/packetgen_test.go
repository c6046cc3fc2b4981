package packetgen

import (
	"bytes"
	"cmp"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
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

// TestStreamAbortsOnError: an fn error at the k-th packet — the first,
// around a window boundary, deep into the stream — stops the stream there
// and comes back unchanged.
func TestStreamAbortsOnError(t *testing.T) {
	smallWindows(t, 64)
	recs := testRecords(t, 2, 4)
	for _, k := range []int{1, 10, 63, 64, 65, 5000} {
		count := 0
		err := Stream(recs, 1, func(packet.Packet) error {
			if count++; count == k {
				return errStop
			}
			return nil
		})
		if err != errStop {
			t.Errorf("k=%d: err = %v, want sentinel", k, err)
		}
		if count != k {
			t.Errorf("k=%d: callback ran %d times", k, count)
		}
	}
}

// TestStreamRejectsInvalidRecords: a record flow.Record.Validate refuses
// (no packets, which used to divide by zero, a negative duration or
// start, which put packets before the flow, or a non-finite time, which
// put NaN or +Inf timestamps in the trace) fails the whole stream with
// the record's index before any packet is emitted.
func TestStreamRejectsInvalidRecords(t *testing.T) {
	good := flow.Record{Start: 0.5, Duration: 1, Packets: 3, Bytes: 1500}
	for name, bad := range map[string]flow.Record{
		"zero packets":      {Start: 1, Duration: 2},
		"negative duration": {Start: 1, Duration: -2, Packets: 4, Bytes: 2000},
		"negative start":    {Start: -1, Duration: 2, Packets: 4, Bytes: 2000},
		"NaN start":         {Start: math.NaN(), Duration: 2, Packets: 4, Bytes: 2000},
		"infinite start":    {Start: math.Inf(1), Duration: 2, Packets: 4, Bytes: 2000},
		"NaN duration":      {Start: 1, Duration: math.NaN(), Packets: 4, Bytes: 2000},
		"infinite duration": {Start: 1, Duration: math.Inf(1), Packets: 4, Bytes: 2000},
		"overflowing end":   {Start: math.MaxFloat64, Duration: math.MaxFloat64, Packets: 4, Bytes: 2000},
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

// smallWindows makes Stream's windows aim at n packets for the rest of
// the test, so a short trace crosses hundreds of window boundaries.
func smallWindows(t *testing.T, n int) {
	prev := windowPackets
	windowPackets = n
	t.Cleanup(func() { windowPackets = prev })
}

// referenceStream is what Stream must emit: every flow's packets drawn on
// their own from the flow's stream, then sorted stably by time over the
// flows in admission order (start time, then record index).
func referenceStream(records []flow.Record, seed uint64) []packet.Packet {
	base := randx.New(seed)
	order := make([]int, len(records))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(records[a].Start, records[b].Start) })
	var pkts []packet.Packet
	for _, idx := range order {
		var st flowState
		st.admit(records[idx], base.DerivePCG(uint64(idx)+0x51ed270b))
		for {
			pkts = append(pkts, packet.Packet{Time: st.t, Key: st.key, Size: st.size})
			if st.left--; st.left == 0 {
				break
			}
			st.size, st.t = st.restSize, st.nextTime()
		}
	}
	slices.SortStableFunc(pkts, func(a, b packet.Packet) int { return cmp.Compare(a.Time, b.Time) })
	return pkts
}

func collect(t *testing.T, records []flow.Record, seed uint64) []packet.Packet {
	t.Helper()
	var pkts []packet.Packet
	if err := Stream(records, seed, func(p packet.Packet) error { pkts = append(pkts, p); return nil }); err != nil {
		t.Fatal(err)
	}
	return pkts
}

func samePackets(t *testing.T, name string, got, want []packet.Packet) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d packets, want %d", name, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: packet %d is %+v, want %+v", name, i, got[i], want[i])
			return
		}
	}
}

// TestStreamMatchesReference: window by window, Stream emits exactly the
// reference merge on every preset, with windows small enough that each
// trace crosses hundreds of them.
func TestStreamMatchesReference(t *testing.T) {
	smallWindows(t, 64)
	for _, preset := range []struct {
		name string
		cfg  func(seconds float64, seed uint64) tracegen.Config
	}{
		{"sprint5", tracegen.SprintFiveTuple},
		{"sprint24", tracegen.SprintPrefix24},
		{"abilene", tracegen.Abilene},
	} {
		for _, seed := range []uint64{1, 7} {
			recs, err := tracegen.Generate(preset.cfg(1, seed))
			if err != nil {
				t.Fatal(err)
			}
			want := referenceStream(recs, seed)
			if len(want) < 150*windowPackets {
				t.Fatalf("%s: %d packets cross too few windows", preset.name, len(want))
			}
			samePackets(t, preset.name, collect(t, recs, seed), want)
		}
	}
}

func testKey(i byte) flow.Key { return flow.Key{Src: flow.Addr{10, 0, 0, i}, Proto: flow.ProtoTCP} }

// TestStreamWindowEdgeCases: hand-built traces the windows must get
// right, each against the reference: zero-duration flows whose packets
// share one instant, a flow so short at 1e9 s that its lifetime is below
// the clock's resolution (a window length added to the window's start
// rounds back to it, and the window must still move), and an idle gap
// millions of windows long.
func TestStreamWindowEdgeCases(t *testing.T) {
	smallWindows(t, 64)
	for name, recs := range map[string][]flow.Record{
		"zero duration": {
			{Key: testKey(1), Start: 1, Packets: 100, Bytes: 100*40 + 7},
			{Key: testKey(2), Start: 0.5, Duration: 2, Packets: 300, Bytes: 300 * 1500},
			{Key: testKey(3), Start: 1, Packets: 3, Bytes: 120},
			{Key: testKey(4), Start: 0, Packets: 200, Bytes: 200 * 60},
		},
		"below resolution": {
			{Key: testKey(1), Start: 1e9, Duration: 1e-9, Packets: 500, Bytes: 500 * 40},
			{Key: testKey(2), Start: 1e9, Duration: 1e-9, Packets: 200, Bytes: 200 * 1500},
			{Key: testKey(3), Start: 1e9 - 1, Duration: 2, Packets: 300, Bytes: 300 * 576},
		},
		"idle gap": {
			{Key: testKey(1), Start: 0, Duration: 1, Packets: 500, Bytes: 500 * 40},
			{Key: testKey(2), Start: 1e6, Duration: 1, Packets: 500, Bytes: 500 * 1500},
			{Key: testKey(3), Start: 1e6 + 0.5, Duration: 1e-3, Packets: 10, Bytes: 400},
		},
	} {
		samePackets(t, name, collect(t, recs, 3), referenceStream(recs, 3))
	}
}

// TestStreamTieRule: packets with equal timestamps leave in admission
// order — start time, then record index — and a flow's own packets in
// their own order, the first (which carries the byte remainder) first.
func TestStreamTieRule(t *testing.T) {
	recs := []flow.Record{
		{Key: testKey(0), Start: 2, Packets: 3, Bytes: 302},
		{Key: testKey(1), Start: 1, Packets: 2, Bytes: 200},
		{Key: testKey(2), Start: 2, Packets: 2, Bytes: 200},
		{Key: testKey(3), Start: 1, Packets: 1, Bytes: 100},
	}
	want := []packet.Packet{
		{Time: 1, Key: testKey(1), Size: 100}, {Time: 1, Key: testKey(1), Size: 100},
		{Time: 1, Key: testKey(3), Size: 100},
		{Time: 2, Key: testKey(0), Size: 102}, {Time: 2, Key: testKey(0), Size: 100}, {Time: 2, Key: testKey(0), Size: 100},
		{Time: 2, Key: testKey(2), Size: 100}, {Time: 2, Key: testKey(2), Size: 100},
	}
	samePackets(t, "ties", collect(t, recs, 1), want)
}

// producers counts the goroutines inside a Stream's merge. A producer
// leaves the merge before it closes the channel Stream waits on, so once
// Stream has returned none may be left in it, however the exiting
// goroutine is scheduled.
func producers() int {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	return bytes.Count(buf[:n], []byte("\nflowrank/internal/packetgen.(*merge).run("))
}

// TestStreamProducerExits: Stream runs one producer goroutine while fn
// runs, and returns only once it has left the merge — after the last
// packet and after an fn error — and over no records it starts none.
// Nothing sleeps: Stream itself waits. On one P a producer Stream did
// not wait for would still be in the merge when the test looks.
func TestStreamProducerExits(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	smallWindows(t, 64)
	recs := testRecords(t, 1, 8)
	for _, stopAt := range []int{0, 1, 100} { // 0: to the end
		n, during := 0, -1
		err := Stream(recs, 1, func(packet.Packet) error {
			if n++; n == 1 {
				during = producers()
			}
			if n == stopAt {
				return errStop
			}
			return nil
		})
		if (stopAt == 0) != (err == nil) {
			t.Errorf("stop at %d: err = %v", stopAt, err)
		}
		if during != 1 {
			t.Errorf("stop at %d: %d producers while streaming, want 1", stopAt, during)
		}
		if got := producers(); got != 0 {
			t.Errorf("stop at %d: %d producers left after Stream returned", stopAt, got)
		}
	}
	if err := Stream(nil, 1, func(packet.Packet) error { t.Error("packet from no records"); return nil }); err != nil {
		t.Errorf("no records: %v", err)
	}
	if got := producers(); got != 0 {
		t.Errorf("no records: %d producers left", got)
	}
}

// TestStreamConcurrent: Streams running at once, as sim.RunPackets runs
// them, each emit what one alone does.
func TestStreamConcurrent(t *testing.T) {
	smallWindows(t, 256)
	recs := testRecords(t, 1, 9)
	want := referenceStream(recs, 5)
	got := make([][]packet.Packet, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := Stream(recs, 5, func(p packet.Packet) error { got[i] = append(got[i], p); return nil }); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := range got {
		samePackets(t, "concurrent", got[i], want)
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
		if err := Stream(recs, uint64(i), func(packet.Packet) error { return nil }); err != nil {
			b.Fatal(err)
		}
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
