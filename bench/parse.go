package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Parsers for what the programs publish: flowtop's text report, the
// `adapt:` lines of its closed loop, the /metrics exposition, the bin
// journal and NetFlow v5 framing. They read only the public surfaces (CLI
// output and wire formats), never flowrank internals.

// printedBin is one bin of a flowtop report.
type printedBin struct {
	Bin                 int64
	Flows               int
	Ranking, Detection  int64
	CountErr            int64 // the printed "count err <=N pkts", 0 for exact tables
	TrueTop, SampledTop []printedFlow
	// The bin's `adapt:` line, when the closed loop is on: the rates as
	// probabilities, and whether the loop kept the rate without a refit
	// (a bin it could not invert).
	hasAdapt           bool
	AdaptFrom, AdaptTo float64
	AdaptKept          bool
}

type printedFlow struct {
	Key  string
	Pkts int64
}

var (
	binHeaderRE = regexp.MustCompile(`^== bin(\d+): t=\[[^)]*\) (\d+) flows, swapped pairs: ranking (\d+) \([^)]*\) detection (\d+) \([^)]*\)(?:, count err <=(\d+) pkts)? ==$`)
	columnGapRE = regexp.MustCompile(`\s{2,}`)
	adaptMoveRE = regexp.MustCompile(`^adapt: p=([0-9.eE+-]+)% -> ([0-9.eE+-]+)% \(ranking<=\S+ over top \d+ of N=\d+ fitted flows\)$`)
	adaptKeepRE = regexp.MustCompile(`^adapt: keeping p=([0-9.eE+-]+)% \((.*)\)$`)
)

// parseAdaptLine reads one `adapt:` line. from and to are probabilities
// (the line prints percentages); a "keeping" line has to == from.
func parseAdaptLine(line string) (from, to float64, kept bool, err error) {
	if m := adaptMoveRE.FindStringSubmatch(line); m != nil {
		from, err = strconv.ParseFloat(m[1], 64)
		if err == nil {
			to, err = strconv.ParseFloat(m[2], 64)
		}
		return from / 100, to / 100, false, err
	}
	if m := adaptKeepRE.FindStringSubmatch(line); m != nil {
		from, err = strconv.ParseFloat(m[1], 64)
		return from / 100, from / 100, true, err
	}
	return 0, 0, false, fmt.Errorf("unrecognised adapt line %q", line)
}

// parseReport reads a whole flowtop stdout.
func parseReport(out []byte) ([]printedBin, error) {
	var bins []printedBin
	var cur *printedBin
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "== bin"):
			m := binHeaderRE.FindStringSubmatch(line)
			if m == nil {
				return nil, fmt.Errorf("unrecognised bin header %q", line)
			}
			var b printedBin
			b.Bin, _ = strconv.ParseInt(m[1], 10, 64)
			b.Flows, _ = strconv.Atoi(m[2])
			b.Ranking, _ = strconv.ParseInt(m[3], 10, 64)
			b.Detection, _ = strconv.ParseInt(m[4], 10, 64)
			if m[5] != "" {
				b.CountErr, _ = strconv.ParseInt(m[5], 10, 64)
			}
			bins = append(bins, b)
			cur = &bins[len(bins)-1]
		case cur == nil:
			if strings.TrimSpace(line) != "" {
				return nil, fmt.Errorf("text before the first bin: %q", line)
			}
		case strings.HasPrefix(line, "adapt:"):
			from, to, kept, err := parseAdaptLine(line)
			if err != nil {
				return nil, err
			}
			cur.AdaptFrom, cur.AdaptTo, cur.AdaptKept, cur.hasAdapt = from, to, kept, true
		case strings.HasPrefix(line, "inversion"), strings.HasPrefix(line, "rank "),
			strings.HasPrefix(line, "---"), strings.TrimSpace(line) == "":
		default:
			f := columnGapRE.Split(strings.TrimSpace(line), -1)
			if len(f) != 5 {
				return nil, fmt.Errorf("bin %d: unrecognised row %q", cur.Bin, line)
			}
			if f[1] != "-" {
				n, err := strconv.ParseInt(f[2], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bin %d: row %q: %w", cur.Bin, line, err)
				}
				cur.TrueTop = append(cur.TrueTop, printedFlow{f[1], n})
			}
			if f[3] != "-" {
				n, err := strconv.ParseInt(f[4], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bin %d: row %q: %w", cur.Bin, line, err)
				}
				cur.SampledTop = append(cur.SampledTop, printedFlow{f[3], n})
			}
		}
	}
	return bins, sc.Err()
}

// parseMetrics reads a Prometheus text exposition into series -> value.
// A series name keeps its label set verbatim (`name{le="0.1"}`).
func parseMetrics(page []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(page))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: no value on line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// journalRecord is the part of one bin-journal line the harness reads.
type journalRecord struct {
	Time   time.Time `json:"time"`
	Msg    string    `json:"msg"`
	Record struct {
		Bin          int64 `json:"bin"`
		Flows        int   `json:"flows"`
		CountErrPkts int64 `json:"count_err_pkts"`
		Stages       *struct {
			Barrier int64 `json:"barrier_ns"`
			Merge   int64 `json:"merge_ns"`
			Invert  int64 `json:"invert_ns"`
			Emit    int64 `json:"emit_ns"`
		} `json:"stages"`
		NetFlow *struct {
			Records    int `json:"records"`
			Datagrams  int `json:"datagrams"`
			SendErrors int `json:"send_errors"`
		} `json:"netflow"`
	} `json:"record"`
}

// parseJournal reads the "bin" records of a -journal file; lines with
// another message share the stream and are skipped, as journalcheck does.
func parseJournal(data []byte) ([]journalRecord, error) {
	var recs []journalRecord
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r journalRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("journal line %d: %w", n, err)
		}
		if r.Msg != "bin" {
			continue
		}
		if r.Record.Stages == nil {
			return nil, fmt.Errorf("journal line %d: bin record without stages", n)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// NetFlow v5 framing: a 24-byte header (version, record count, ..., flow
// sequence at offset 16) followed by count 48-byte records.
const (
	nf5HeaderLen = 24
	nf5RecordLen = 48
)

// nf5Header returns the record count and flow sequence of one datagram
// after checking its version field and length.
func nf5Header(d []byte) (count int, flowSeq uint32, err error) {
	if len(d) < nf5HeaderLen {
		return 0, 0, fmt.Errorf("netflow: %d-byte datagram is shorter than a v5 header", len(d))
	}
	if v := binary.BigEndian.Uint16(d[0:2]); v != 5 {
		return 0, 0, fmt.Errorf("netflow: version field %d, want 5", v)
	}
	count = int(binary.BigEndian.Uint16(d[2:4]))
	if len(d) < nf5HeaderLen+count*nf5RecordLen {
		return 0, 0, fmt.Errorf("netflow: datagram of %d bytes cannot hold %d records", len(d), count)
	}
	return count, binary.BigEndian.Uint32(d[16:20]), nil
}

// nf5Tally follows a stream of v5 datagrams the way a collector does: the
// header's flow sequence must equal the records seen so far, so any lost,
// duplicated or reordered datagram shows as a gap.
type nf5Tally struct {
	Datagrams, Records, Gaps, Malformed int
}

func (t *nf5Tally) add(d []byte) {
	count, seq, err := nf5Header(d)
	if err != nil {
		t.Malformed++
		return
	}
	if seq != uint32(t.Records) {
		t.Gaps++
		t.Records = int(seq)
	}
	t.Datagrams++
	t.Records += count
}

// nf5File tallies a file of back-to-back v5 datagrams (flowtop -netflow).
func nf5File(data []byte) (nf5Tally, error) {
	var t nf5Tally
	for len(data) > 0 {
		count, _, err := nf5Header(data)
		if err != nil {
			return t, err
		}
		n := nf5HeaderLen + count*nf5RecordLen
		t.add(data[:n])
		data = data[n:]
	}
	return t, nil
}
