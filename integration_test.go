package flowrank

// End-to-end integration tests exercising the full pipeline the way the
// command-line tools do: trace synthesis → packet expansion → wire-format
// encode/decode → sampling → flow accounting → metrics, all through the
// module's real code paths.

import (
	"bytes"
	"io"
	"math"
	"testing"

	"flowrank/internal/core"
	"flowrank/internal/layers"
	"flowrank/internal/netflow"
	"flowrank/internal/packet"
	"flowrank/internal/pcap"
)

// TestPcapPipelineRoundTrip writes a synthetic trace as real Ethernet
// frames in pcap, reads it back through the layer parser, and verifies
// the recovered flow table matches the directly-built one exactly.
func TestPcapPipelineRoundTrip(t *testing.T) {
	records := genTrace(t, SprintFiveTuple(5, 77), 60)

	direct := NewFlowTable(FiveTuple{})
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 0, 2048)
	const overhead = layers.EthernetHeaderLen + layers.IPv4MinHeaderLen + layers.TCPMinHeaderLen
	err = StreamPackets(records, 3, func(p Packet) error {
		direct.Add(p)
		payload := p.Size - overhead
		if payload < 0 {
			payload = 0
		}
		var ferr error
		frame, ferr = layers.Frame(frame[:0], p.Key, payload, 0)
		if ferr != nil {
			return ferr
		}
		return w.Write(pcap.Packet{Time: p.Time, Data: frame})
	})
	if err != nil {
		t.Fatal(err)
	}

	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recovered := NewFlowTable(FiveTuple{})
	for {
		pk, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		key, err := layers.FlowKey(pk.Data)
		if err != nil {
			t.Fatal(err)
		}
		recovered.Add(Packet{Time: pk.Time, Key: key, Size: pk.OrigLen})
	}

	if recovered.Len() != direct.Len() {
		t.Fatalf("recovered %d flows, direct %d", recovered.Len(), direct.Len())
	}
	for _, e := range direct.Entries() {
		got, ok := recovered.Lookup(e.Key)
		if !ok {
			t.Fatalf("flow %v lost in pcap round trip", e.Key)
		}
		if got.Packets != e.Packets {
			t.Fatalf("flow %v: %d packets recovered, want %d", e.Key, got.Packets, e.Packets)
		}
	}
}

// TestNativeTracePipeline writes packets in the native binary format and
// replays them through a sampler into per-bin metrics, mirroring flowtop.
func TestNativeTracePipeline(t *testing.T) {
	records := genTrace(t, SprintFiveTuple(10, 88), 100)
	var buf bytes.Buffer
	w, err := packet.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	if err := StreamPackets(records, 4, func(p Packet) error {
		total++
		return w.Write(p)
	}); err != nil {
		t.Fatal(err)
	}
	w.Flush()

	r, err := packet.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig := NewFlowTable(FiveTuple{})
	samp := NewFlowTable(FiveTuple{})
	smp := NewBernoulli(0.2, 9)
	replayed := 0
	block := make([]Packet, 256)
	for {
		n, err := r.ReadBlock(block)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range block[:n] {
			replayed++
			orig.Add(p)
			if smp.Sample(p) {
				samp.Add(p)
			}
		}
	}
	if replayed != total {
		t.Fatalf("replayed %d packets, wrote %d", replayed, total)
	}
	pc := CountSwapped(orig.Entries(), packetCounts(samp), 10)
	if pc.Pairs <= 0 || pc.Ranking < 0 || pc.Ranking > pc.Pairs {
		t.Fatalf("degenerate metrics: %+v", pc)
	}
	// Sampling kept roughly 20% of packets.
	ratio := float64(samp.TotalPackets()) / float64(orig.TotalPackets())
	if math.Abs(ratio-0.2) > 0.03 {
		t.Errorf("sampled ratio %g, want ~0.2", ratio)
	}
}

// packetCounts maps every flow of the table to its packet count, the form
// CountSwapped takes the sampled side in.
func packetCounts(tab *FlowTable) map[Key]int64 {
	counts := make(map[Key]int64, tab.Len())
	for _, e := range tab.Entries() {
		counts[e.Key] = e.Packets
	}
	return counts
}

// TestNetflowExportOfTopFlows round-trips the sampled top list through
// NetFlow v5 datagrams.
func TestNetflowExportOfTopFlows(t *testing.T) {
	records := genTrace(t, SprintFiveTuple(5, 99), 80)
	table := NewFlowTable(FiveTuple{})
	if err := StreamPackets(records, 5, func(p Packet) error {
		table.Add(p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	top := table.Top(40)
	nfRecords := make([]netflow.Record, len(top))
	for i, e := range top {
		nfRecords[i] = netflow.Record{
			Key:     e.Key,
			Packets: uint32(e.Packets),
			Octets:  uint32(e.Bytes),
		}
	}
	grams, err := netflow.Export(netflow.Header{SamplingInterval: 100}, nfRecords)
	if err != nil {
		t.Fatal(err)
	}
	var back []netflow.Record
	for _, g := range grams {
		hdr, rs, err := netflow.DecodeDatagram(g)
		if err != nil {
			t.Fatal(err)
		}
		if hdr.SamplingInterval != 100 {
			t.Fatalf("sampling interval lost: %d", hdr.SamplingInterval)
		}
		back = append(back, rs...)
	}
	if len(back) != len(nfRecords) {
		t.Fatalf("%d records decoded, want %d", len(back), len(nfRecords))
	}
	for i := range back {
		if back[i].Key != nfRecords[i].Key || back[i].Packets != nfRecords[i].Packets {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// TestModelPredictsSimulation ties the analytical and simulated halves of
// the library together on a small population, as the kernels figure does
// at N = 3.5M: the hybrid-kernel model should land within a factor ~2 of
// the trace-driven experiment once the population matches.
func TestModelPredictsSimulation(t *testing.T) {
	// One 60s bin; all flows fully inside it so N is known exactly.
	n := 3000
	d := ParetoWithMean(9.6, 1.5)
	records := make([]FlowRecord, n)
	for i := 0; i < n; i++ {
		pkts := int(math.Max(1, math.Round(d.QuantileCCDF((float64(i)+0.5)/float64(n)))))
		records[i] = FlowRecord{
			Key:   Key{Src: Addr{10, byte(i >> 16), byte(i >> 8), byte(i)}, Proto: ProtoTCP},
			Start: 1, Duration: 55, Packets: pkts, Bytes: int64(pkts) * 500,
		}
	}
	p := 0.1
	res, err := Simulate(SimConfig{
		Records: records, BinSeconds: 60, Horizon: 60, TopT: 5,
		Rates: []float64{p}, Runs: 60, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	simMean := firstBin(res, 0).Ranking.Mean()
	m := Model{N: n, T: 5, Dist: d, Kernel: core.KernelHybrid}
	pred := m.RankingMetric(p)
	if simMean > pred*2.5+1 || pred > simMean*2.5+1 {
		t.Errorf("model %g vs simulation %g: should agree within ~2x", pred, simMean)
	}
}
