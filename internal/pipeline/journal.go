package pipeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"reflect"
	"slices"
	"strings"

	"flowrank/internal/obs"
)

// The bin journal is the monitor's flight recorder: one JSON object per
// completed measurement bin, written through log/slog's JSON handler so
// each line is independently parseable (time, level, msg "bin", and a
// "record" object holding the measurement). Where /metrics shows the
// monitor's current state, the journal preserves the per-bin history —
// what each bin measured, how long each pipeline stage took, what the
// adaptive loop decided and why, and whether the NetFlow export landed.

// journalMsg is the slog message every bin record is logged under;
// ValidateJournal skips lines with any other message, so operational
// records can share the stream.
const journalMsg = "bin"

// NewJournal wraps w in the slog JSON logger Config.Journal expects. Callers own w's lifetime and any locking bufio needs.
func NewJournal(w io.Writer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, nil))
}

// BinRecord is one journal line's "record" payload, and what Run hands
// its per-bin callback: everything the pipeline knows about one completed
// measurement bin.
//
// This type and its sub-records are the journal's schema. ValidateJournal
// decodes each record into it to check types, and requires every field
// that is neither a pointer nor omitempty, since the encoder always writes
// those; a pointer or omitempty field is optional. A field added here is
// journaled and validated with no other edit.
type BinRecord struct {
	Bin            int64   `json:"bin"`
	Start          float64 `json:"start"`
	End            float64 `json:"end"`
	Table          string  `json:"table"`
	Flows          int     `json:"flows"`
	SampledFlows   int     `json:"sampled_flows"`
	OrigPackets    int64   `json:"orig_packets"`
	SampledPackets int64   `json:"sampled_packets"`
	// SamplingRate is the probability that produced this bin — recorded
	// before any adaptive retune below takes effect.
	SamplingRate      float64 `json:"sampling_rate"`
	CountErrPkts      int64   `json:"count_err_pkts"`
	RankingFraction   float64 `json:"ranking_fraction"`
	DetectionFraction float64 `json:"detection_fraction"`
	// Stages is the bin's flush-stage timing breakdown from the stream
	// engine's instrumentation, absent on an uninstrumented run. Its emit
	// stage is the pipeline's own per-bin work: NetFlow export and the
	// adaptive refit.
	Stages *obs.StageNanos `json:"stages,omitempty"`
	// Inversion, Adapt and NetFlow record the optional per-bin stages
	// that ran; each is absent when its stage is not configured.
	Inversion *InversionRecord `json:"inversion,omitempty"`
	Adapt     *AdaptRecord     `json:"adapt,omitempty"`
	NetFlow   *NetFlowRecord   `json:"netflow,omitempty"`
}

// InversionRecord summarizes the bin's flow-size-distribution inversion.
type InversionRecord struct {
	Method    string  `json:"method"`
	MeanPkts  float64 `json:"mean_pkts"`
	TailIndex float64 `json:"tail_index"`
	Flows     float64 `json:"flows"`
	Err       string  `json:"err,omitempty"`
}

// AdaptRecord is the closed loop's decision for this bin: the rate it
// saw, the rate it chose, and — when it could not refit — why it kept
// the rate.
type AdaptRecord struct {
	Applied  bool    `json:"applied"`
	PrevRate float64 `json:"prev_rate"`
	Rate     float64 `json:"rate"`
	Reason   string  `json:"reason,omitempty"`
	// FittedFlows is the flow population N of the model the refit solved
	// the rate on; absent when there was no refit.
	FittedFlows int `json:"fitted_flows,omitempty"`
}

// NetFlowRecord is the bin's NetFlow v5 export outcome.
type NetFlowRecord struct {
	Dest      string `json:"dest"`
	Records   int    `json:"records"`
	Datagrams int    `json:"datagrams"`
	// SendErrors counts UDP writes that failed; the records they carried
	// are lost (collectors see the gap in the flow sequence).
	SendErrors int `json:"send_errors"`
	// FlowSeqStart is the v5 flow sequence of the first record exported
	// for this bin.
	FlowSeqStart int    `json:"flow_seq_start"`
	Err          string `json:"err,omitempty"`
}

// journalLine is the slog envelope of every journal line. Record is
// decoded into a BinRecord only on a bin line; other lines may carry a
// record attribute of any shape.
type journalLine struct {
	Time   string          `json:"time"`
	Level  string          `json:"level"`
	Msg    string          `json:"msg"`
	Record json.RawMessage `json:"record,omitempty"`
}

// ValidateJournal reads a journal stream line by line and checks each
// line against the types that write it: a line must decode into the slog
// envelope (time, level and msg strings), and a line whose msg is "bin"
// must carry a record object that decodes into BinRecord and holds every
// field the encoder always writes. Unknown keys pass. It returns the
// number of bin records seen; zero bins with a nil error means the stream
// held no journal records (which callers may treat as a failure).
func ValidateJournal(r io.Reader) (bins int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		where := fmt.Sprintf("journal line %d", line)
		var env journalLine
		if err := check(raw, &env, where); err != nil {
			return bins, err
		}
		if env.Msg != journalMsg {
			continue // operational record sharing the stream
		}
		if env.Record == nil {
			return bins, fmt.Errorf("%s: bin record missing \"record\" object", where)
		}
		if err := check(env.Record, new(BinRecord), where+".record"); err != nil {
			return bins, err
		}
		bins++
	}
	if err := sc.Err(); err != nil {
		return bins, fmt.Errorf("journal line %d: %w", line+1, err)
	}
	return bins, nil
}

// check decodes raw into v, a pointer to a struct, which checks the
// types, then checks that raw holds what the encoder of v always writes.
func check(raw []byte, v any, where string) error {
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", where, err)
	}
	return present(raw, reflect.TypeOf(v).Elem(), where)
}

// present checks that raw is a JSON object holding every field of struct
// type t that is neither a pointer nor omitempty, under its json tag's
// name, and walks into each struct-valued field present. A null field
// counts as absent, except that a pointer field present must not be null.
func present(raw []byte, t reflect.Type, where string) error {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil || obj == nil {
		return fmt.Errorf("%s: not a JSON object", where)
	}
	for i := range t.NumField() {
		f := t.Field(i)
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		ft, ptr := f.Type, f.Type.Kind() == reflect.Pointer
		if ptr {
			ft = ft.Elem()
		}
		v, ok := obj[name]
		if ok && string(v) == "null" {
			if ptr {
				return fmt.Errorf("%s: field %q is null", where, name)
			}
			ok = false
		}
		switch {
		case ok && ft.Kind() == reflect.Struct:
			if err := present(v, ft, where+"."+name); err != nil {
				return err
			}
		case !ok && !ptr && !slices.Contains(strings.Split(opts, ","), "omitempty"):
			return fmt.Errorf("%s: required field %q is missing or null", where, name)
		}
	}
	return nil
}
