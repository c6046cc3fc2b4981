package pipeline

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"maps"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flowrank/internal/obs"
)

// validBin is a bin line with every sub-record present; the reject and
// accept cases below are edits of it.
const validBin = `{"time":"t","level":"INFO","msg":"bin","record":{"bin":1,"start":0,"end":1,"table":"exact","flows":1,"sampled_flows":1,"orig_packets":1,"sampled_packets":1,"sampling_rate":0.5,"count_err_pkts":0,"ranking_fraction":0,"detection_fraction":0,` +
	`"stages":{"barrier_ns":1,"merge_ns":1,"invert_ns":1,"emit_ns":1,"total_ns":4},` +
	`"inversion":{"method":"naive","mean_pkts":1,"tail_index":0,"flows":1},` +
	`"adapt":{"applied":true,"prev_rate":0.5,"rate":0.4},` +
	`"netflow":{"dest":"collector:2055","records":1,"datagrams":1,"send_errors":0,"flow_seq_start":0}}}`

// editBin is validBin with its one occurrence of old replaced by new.
func editBin(old, new string) string {
	if strings.Count(validBin, old) != 1 {
		panic("editBin: " + old + " does not occur exactly once")
	}
	return strings.Replace(validBin, old, new, 1) + "\n"
}

// journalRejects are streams ValidateJournal must refuse.
var journalRejects = map[string]string{
	"not json":        "bogus\n",
	"null line":       "null\n",
	"missing msg":     `{"time":"t","level":"INFO"}` + "\n",
	"msg not string":  `{"time":"t","level":"INFO","msg":7}` + "\n",
	"null envelope":   `{"time":null,"level":"INFO","msg":"other"}` + "\n",
	"missing record":  `{"time":"t","level":"INFO","msg":"bin"}` + "\n",
	"null record":     `{"time":"t","level":"INFO","msg":"bin","record":null}` + "\n",
	"record array":    `{"time":"t","level":"INFO","msg":"bin","record":[1]}` + "\n",
	"missing field":   `{"time":"t","level":"INFO","msg":"bin","record":{"bin":1}}` + "\n",
	"wrong type":      editBin(`"bin":1,`, `"bin":"one",`),
	"bad nested type": editBin(`"dest":"collector:2055"`, `"dest":7`),
	// Shapes the record type cannot decode.
	"applied not bool":   editBin(`"applied":true`, `"applied":"yes"`),
	"inversion err":      editBin(`"flows":1}`, `"flows":1,"err":7}`),
	"adapt reason":       editBin(`"rate":0.4}`, `"rate":0.4,"reason":{}}`),
	"fractional flows":   editBin(`"flows":1,"sampled_flows"`, `"flows":1.5,"sampled_flows"`),
	"bin beyond int64":   editBin(`"bin":1,`, `"bin":1e300,`),
	"adapt no applied":   editBin(`"applied":true,`, ``),
	"null stages":        editBin(`{"barrier_ns":1,"merge_ns":1,"invert_ns":1,"emit_ns":1,"total_ns":4}`, `null`),
	"null required":      editBin(`"table":"exact"`, `"table":null`),
	"null nested field":  editBin(`"total_ns":4`, `"total_ns":null`),
	"spaced null stages": editBin(`"stages":{"barrier_ns":1,"merge_ns":1,"invert_ns":1,"emit_ns":1,"total_ns":4}`, `"stages" :  null `),
	"stages not object":  editBin(`{"barrier_ns":1,"merge_ns":1,"invert_ns":1,"emit_ns":1,"total_ns":4}`, `[]`),
	"nested missing key": editBin(`"records":1,`, ``),
}

// journalAccepts are one-line streams ValidateJournal must pass, and how
// many bin records each holds.
var journalAccepts = map[string]struct {
	line string
	bins int
}{
	"full record":          {validBin + "\n", 1},
	"unknown keys":         {strings.Replace(editBin(`"bin":1,`, `"bin":1,"extra":[{}],`), `"msg"`, `"host":{"a":1},"msg"`, 1), 1},
	"null optional scalar": {editBin(`"flows":1}`, `"flows":1,"err":null}`), 1},
	"operational":          {`{"time":"t","level":"INFO","msg":"other"}` + "\n", 0},
	"operational record":   {`{"time":"t","level":"INFO","msg":"other","record":"any shape"}` + "\n", 0},
	"operational null":     {`{"time":"t","level":"INFO","msg":"other","record":null}` + "\n", 0},
}

// TestValidateJournalRejects pins the validator's failure modes: it is
// the e2e harness's oracle, so it must actually reject broken streams.
func TestValidateJournalRejects(t *testing.T) {
	for name, in := range journalRejects {
		if _, err := ValidateJournal(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ValidateJournal accepted it", name)
		}
	}
	for name, c := range journalAccepts {
		if n, err := ValidateJournal(strings.NewReader(c.line)); err != nil || n != c.bins {
			t.Errorf("%s: bins=%d err=%v, want %d, nil", name, n, err, c.bins)
		}
	}
}

// journalLineOf is rec as the pipeline journals it.
func journalLineOf(rec *BinRecord) []byte {
	var buf bytes.Buffer
	NewJournal(&buf).Info(journalMsg, slog.Any("record", rec))
	return buf.Bytes()
}

// TestJournalSchemaKeys pins which keys of a bin record ValidateJournal
// requires and which it lets a line omit, object by object: every key a
// fully populated record is journaled with is deleted in turn.
func TestJournalSchemaKeys(t *testing.T) {
	type keys struct{ required, optional []string }
	want := map[string]keys{
		"record": {
			required: []string{"bin", "count_err_pkts", "detection_fraction", "end", "flows", "orig_packets", "ranking_fraction", "sampled_flows", "sampled_packets", "sampling_rate", "start", "table"},
			optional: []string{"adapt", "inversion", "netflow", "stages"},
		},
		"record.stages":    {required: []string{"barrier_ns", "emit_ns", "invert_ns", "merge_ns", "total_ns"}},
		"record.inversion": {required: []string{"flows", "mean_pkts", "method", "tail_index"}, optional: []string{"err"}},
		// applied is required because the encoder always writes it; it is
		// the one entry that differs from the hand-kept key tables these
		// sets were first taken from.
		"record.adapt":   {required: []string{"applied", "prev_rate", "rate"}, optional: []string{"fitted_flows", "reason"}},
		"record.netflow": {required: []string{"datagrams", "dest", "flow_seq_start", "records", "send_errors"}, optional: []string{"err"}},
	}
	full := &BinRecord{
		Bin: 2, Start: 20, End: 30, Table: "exact", Flows: 9, SampledFlows: 4,
		OrigPackets: 90, SampledPackets: 40, SamplingRate: 0.5, CountErrPkts: 1,
		RankingFraction: 0.1, DetectionFraction: 0.2,
		Stages:    &obs.StageNanos{Barrier: 1, Merge: 2, Invert: 3, Emit: 4, Total: 10},
		Inversion: &InversionRecord{Method: "naive", MeanPkts: 9, TailIndex: 1.5, Flows: 12, Err: "e"},
		Adapt:     &AdaptRecord{Applied: true, PrevRate: 0.5, Rate: 0.4, Reason: "r", FittedFlows: 12},
		NetFlow:   &NetFlowRecord{Dest: "c:2055", Records: 4, Datagrams: 1, SendErrors: 1, FlowSeqStart: 8, Err: "e"},
	}
	var line map[string]any
	if err := json.Unmarshal(journalLineOf(full), &line); err != nil {
		t.Fatal(err)
	}
	validates := func() bool {
		b, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		n, err := ValidateJournal(bytes.NewReader(b))
		return err == nil && n == 1
	}
	if !validates() {
		t.Fatal("the fully populated record does not validate")
	}
	got := map[string]keys{}
	var walk func(obj map[string]any, path string)
	walk = func(obj map[string]any, path string) {
		var k keys
		for _, key := range slices.Sorted(maps.Keys(obj)) {
			v := obj[key]
			delete(obj, key)
			if validates() {
				k.optional = append(k.optional, key)
			} else {
				k.required = append(k.required, key)
			}
			obj[key] = v
			if sub, ok := v.(map[string]any); ok {
				walk(sub, path+"."+key)
			}
		}
		got[path] = k
	}
	walk(line["record"].(map[string]any), "record")
	for path, w := range want {
		if !reflect.DeepEqual(got[path], w) {
			t.Errorf("%s: required %v, optional %v; want %v, %v", path, got[path].required, got[path].optional, w.required, w.optional)
		}
	}
	if len(got) != len(want) {
		t.Errorf("objects %v, want %v", slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)))
	}
}

// TestValidateJournalLongLine: a line beyond the scanner's buffer fails
// with the number of the line it is on.
func TestValidateJournalLongLine(t *testing.T) {
	in := validBin + "\n" + strings.Repeat("x", 5<<20) + "\n"
	_, err := ValidateJournal(strings.NewReader(in))
	if !errors.Is(err, bufio.ErrTooLong) || !strings.HasPrefix(err.Error(), "journal line 2: ") {
		t.Errorf("err = %v, want journal line 2 wrapping %v", err, bufio.ErrTooLong)
	}
}

// FuzzValidateJournal: ValidateJournal never panics, and a bin line it
// accepts decodes into BinRecord, and that record journaled again
// validates again.
func FuzzValidateJournal(f *testing.F) {
	example, err := os.ReadFile("../daemon/testdata/journal.example.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(example), "\n") {
		f.Add(line)
	}
	for _, in := range journalRejects {
		f.Add(in)
	}
	for _, c := range journalAccepts {
		f.Add(c.line)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if _, err := ValidateJournal(strings.NewReader(in)); err != nil {
			return
		}
		for _, line := range strings.Split(in, "\n") {
			var env journalLine
			if json.Unmarshal([]byte(line), &env) != nil || env.Msg != journalMsg {
				continue
			}
			var rec BinRecord
			if err := json.Unmarshal(env.Record, &rec); err != nil {
				t.Fatalf("accepted bin line does not decode: %v\n%s", err, line)
			}
			again := journalLineOf(&rec)
			if n, err := ValidateJournal(bytes.NewReader(again)); err != nil || n != 1 {
				t.Fatalf("re-journaled record: bins=%d err=%v\n%s", n, err, again)
			}
		}
	})
}
