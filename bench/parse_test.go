package main

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
	"time"
)

// A flowtop report in the shapes the four workloads print: an exact bin
// with a short top list, a bounded bin with its count error, and the
// closed loop's two kinds of adapt line.
const sampleReport = `== bin0: t=[0s,60s) 281962 flows, swapped pairs: ranking 35 (1.24e-05) detection 27 (9.58e-06) ==
rank                                      true flow   pkts                                   sampled flow  pkts
---------------------------------------------------------------------------------------------------------------
   1     tcp 10.49.54.251:1103 > 145.234.218.171:53  29277     tcp 10.49.54.251:1103 > 145.234.218.171:53   272
   2  tcp 11.159.159.149:45613 > 134.250.104.181:80  27861  tcp 11.159.159.149:45613 > 134.250.104.181:80   270
   3      tcp 10.13.74.221:32058 > 159.190.24.73:80   3472                                              -     -

inversion (parametric): mean=12.37 pkts, tail index=1.64, est flows=38002, size quantiles q50=7.388 q10=19.66 q1=79.78 q0.1=323.7

adapt: p=10% -> 90.55% (ranking<=1 over top 10 of N=38002 fitted flows)

== bin4: t=[20s,25s) 2048 flows, swapped pairs: ranking 8 (0.000392) detection 2 (9.81e-05), count err <=15 pkts ==
rank                         true flow  pkts                      sampled flow  pkts
------------------------------------------------------------------------------------
   1   proto-0 0.0.0.0:0 > 16.0.17.0:0   996   proto-0 0.0.0.0:0 > 16.0.17.0:0    90

inversion (parametric): invert: Hill estimator needs 2 <= k < n, got k=10 n=4

adapt: keeping p=99.77% (invert: Hill estimator needs 2 <= k < n, got k=10 n=4)

`

func TestParseReport(t *testing.T) {
	bins, err := parseReport([]byte(sampleReport))
	if err != nil {
		t.Fatal(err)
	}
	// The report prints percentages; the parser divides at run time.
	pct := func(v float64) float64 { return v / 100 }
	want := []printedBin{
		{
			Bin: 0, Flows: 281962, Ranking: 35, Detection: 27,
			TrueTop: []printedFlow{
				{"tcp 10.49.54.251:1103 > 145.234.218.171:53", 29277},
				{"tcp 11.159.159.149:45613 > 134.250.104.181:80", 27861},
				{"tcp 10.13.74.221:32058 > 159.190.24.73:80", 3472},
			},
			SampledTop: []printedFlow{
				{"tcp 10.49.54.251:1103 > 145.234.218.171:53", 272},
				{"tcp 11.159.159.149:45613 > 134.250.104.181:80", 270},
			},
			hasAdapt: true, AdaptFrom: pct(10), AdaptTo: pct(90.55),
		},
		{
			Bin: 4, Flows: 2048, Ranking: 8, Detection: 2, CountErr: 15,
			TrueTop:    []printedFlow{{"proto-0 0.0.0.0:0 > 16.0.17.0:0", 996}},
			SampledTop: []printedFlow{{"proto-0 0.0.0.0:0 > 16.0.17.0:0", 90}},
			hasAdapt:   true, AdaptFrom: pct(99.77), AdaptTo: pct(99.77), AdaptKept: true,
		},
	}
	if !reflect.DeepEqual(bins, want) {
		t.Fatalf("parseReport:\n got %+v\nwant %+v", bins, want)
	}
	for _, bad := range []string{
		"== bin0: garbage ==\n",
		"stray text\n",
		strings.Replace(sampleReport, "   272\n", "   27x\n", 1),
		strings.Replace(sampleReport, "adapt: keeping", "adapt: dropping", 1),
	} {
		if _, err := parseReport([]byte(bad)); err == nil {
			t.Errorf("parseReport accepted %q", bad[:min(len(bad), 40)])
		}
	}
}

func TestParseAdaptLine(t *testing.T) {
	from, to, kept, err := parseAdaptLine("adapt: p=0.5294% -> 1e+02% (ranking<=1 over top 10 of N=25 fitted flows)")
	if lo := 0.5294; err != nil || from != lo/100 || to != 1 || kept {
		t.Fatalf("got %v %v %v %v", from, to, kept, err)
	}
	if _, _, _, err := parseAdaptLine("adapt: p=ten% -> 5% (ranking<=1 over top 10 of N=25 fitted flows)"); err == nil {
		t.Fatal("a non-numeric rate parsed")
	}
}

func TestParseMetrics(t *testing.T) {
	page := `# HELP flowrankd_packets_ingested_total Packets read.
# TYPE flowrankd_packets_ingested_total counter
flowrankd_packets_ingested_total 7.728025e+06
flowrankd_bin_process_seconds_bucket{le="0.001"} 12
flowrankd_bin_process_seconds_bucket{le="+Inf"} 207
flowrankd_bin_process_seconds_sum 0.006994617

flowrankd_build_info{version="go1.24.0", goos="linux"} 1
`
	m, err := parseMetrics([]byte(page))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"flowrankd_packets_ingested_total":                       7728025,
		`flowrankd_bin_process_seconds_bucket{le="0.001"}`:       12,
		`flowrankd_bin_process_seconds_bucket{le="+Inf"}`:        207,
		"flowrankd_bin_process_seconds_sum":                      0.006994617,
		`flowrankd_build_info{version="go1.24.0", goos="linux"}`: 1,
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("parseMetrics = %v, want %v", m, want)
	}
	for _, bad := range []string{"novalue\n", "name not-a-number\n"} {
		if _, err := parseMetrics([]byte(bad)); err == nil {
			t.Errorf("parseMetrics accepted %q", bad)
		}
	}
}

func TestParseJournal(t *testing.T) {
	journal := `{"time":"2026-09-28T00:15:46.218123456Z","level":"INFO","msg":"bin","record":{"bin":3,"start":15,"end":20,"table":"countmin","flows":4096,"sampled_flows":812,"orig_packets":91234,"sampled_packets":903,"sampling_rate":0.01,"count_err_pkts":28,"ranking_fraction":0.01,"detection_fraction":0.01,"stages":{"barrier_ns":404632,"merge_ns":272559,"invert_ns":7644,"emit_ns":19258,"total_ns":704093},"netflow":{"dest":"127.0.0.1:9","records":10,"datagrams":1,"send_errors":0,"flow_seq_start":30}}}
{"time":"2026-09-28T00:15:46.3Z","level":"WARN","msg":"netflow send failed","bin":4}

{"time":"2026-09-28T00:15:46.4Z","level":"INFO","msg":"bin","record":{"bin":4,"flows":7,"orig_packets":9,"count_err_pkts":0,"stages":{"barrier_ns":1,"merge_ns":2,"invert_ns":3,"emit_ns":4,"total_ns":10}}}
`
	recs, err := parseJournal([]byte(journal))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d bin records, want 2 (the WARN line is not one)", len(recs))
	}
	r := recs[0]
	if r.Record.Bin != 3 || r.Record.Flows != 4096 || r.Record.CountErrPkts != 28 ||
		r.Record.Stages.Barrier != 404632 || r.Record.Stages.Emit != 19258 ||
		r.Record.NetFlow == nil || r.Record.NetFlow.Datagrams != 1 || r.Record.NetFlow.Records != 10 {
		t.Fatalf("first record = %+v", r.Record)
	}
	if want := time.Date(2026, 9, 28, 0, 15, 46, 218123456, time.UTC); !r.Time.Equal(want) {
		t.Fatalf("record time %v, want %v", r.Time, want)
	}
	if recs[1].Record.NetFlow != nil {
		t.Fatal("a bin without export has a netflow record")
	}
	for _, bad := range []string{
		"not json\n",
		`{"msg":"bin","record":{"bin":1}}` + "\n", // no stages: not written with pipeline stats
	} {
		if _, err := parseJournal([]byte(bad)); err == nil {
			t.Errorf("parseJournal accepted %q", bad)
		}
	}
}

func nf5Datagram(version uint16, count int, seq uint32) []byte {
	d := make([]byte, nf5HeaderLen+count*nf5RecordLen)
	binary.BigEndian.PutUint16(d[0:2], version)
	binary.BigEndian.PutUint16(d[2:4], uint16(count))
	binary.BigEndian.PutUint32(d[16:20], seq)
	return d
}

func TestNetFlowTally(t *testing.T) {
	var tally nf5Tally
	tally.add(nf5Datagram(5, 30, 0))
	tally.add(nf5Datagram(5, 10, 30))
	if tally != (nf5Tally{Datagrams: 2, Records: 40}) {
		t.Fatalf("in-order stream: %+v", tally)
	}
	tally.add(nf5Datagram(5, 10, 70)) // the datagram carrying records 40..69 never arrived
	tally.add(nf5Datagram(9, 1, 80))  // not v5
	tally.add(nf5Datagram(5, 3, 80)[:nf5HeaderLen+nf5RecordLen])
	tally.add([]byte{0, 5})
	if tally != (nf5Tally{Datagrams: 3, Records: 80, Gaps: 1, Malformed: 3}) {
		t.Fatalf("after a loss and three bad datagrams: %+v", tally)
	}

	file := append(nf5Datagram(5, 2, 0), nf5Datagram(5, 1, 2)...)
	ft, err := nf5File(file)
	if err != nil || ft != (nf5Tally{Datagrams: 2, Records: 3}) {
		t.Fatalf("nf5File = %+v, %v", ft, err)
	}
	if _, err := nf5File(file[:len(file)-1]); err == nil {
		t.Fatal("a truncated export file parsed")
	}
}

func TestParseProcStat(t *testing.T) {
	// utime=1234 and stime=56 ticks, behind a command name with spaces
	// and a parenthesis in it.
	line := "4242 (flow rankd) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 56 0 0 20 0 9 0 100 1 2 3\n"
	c, err := parseProcStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if c.user != 12340*time.Millisecond || c.sys != 560*time.Millisecond || c.total() != 12900*time.Millisecond {
		t.Fatalf("cpu = %+v", c)
	}
	if _, err := parseProcStat([]byte("4242 (x) S 1 2")); err == nil {
		t.Fatal("a short stat line parsed")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tflowtop\nVmPeak:\t 1234567 kB\nVmHWM:\t   12345 kB\nVmRSS:\t    9999 kB\n"
	if kb := parseVmHWM([]byte(status)); kb != 12345 {
		t.Fatalf("VmHWM = %d kB, want 12345", kb)
	}
	// A zombie's status page has no memory lines.
	if kb := parseVmHWM([]byte("Name:\tflowtop\nState:\tZ (zombie)\n")); kb != 0 {
		t.Fatalf("VmHWM of a zombie = %d, want 0", kb)
	}
}
