package pipeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"

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

// jsonKind is the JSON type a schema field must decode to.
type jsonKind int

const (
	kindNumber jsonKind = iota
	kindString
	kindObject
)

// field is one schema entry: a key, its JSON type, and whether a record
// may omit it.
type field struct {
	key      string
	kind     jsonKind
	optional bool
}

// recordSchema is the journal's contract, checked field-by-field by
// ValidateJournal — the Go-native stand-in for a JSON Schema document,
// kept next to BinRecord so the two cannot drift silently.
var recordSchema = []field{
	{key: "bin", kind: kindNumber},
	{key: "start", kind: kindNumber},
	{key: "end", kind: kindNumber},
	{key: "table", kind: kindString},
	{key: "flows", kind: kindNumber},
	{key: "sampled_flows", kind: kindNumber},
	{key: "orig_packets", kind: kindNumber},
	{key: "sampled_packets", kind: kindNumber},
	{key: "sampling_rate", kind: kindNumber},
	{key: "count_err_pkts", kind: kindNumber},
	{key: "ranking_fraction", kind: kindNumber},
	{key: "detection_fraction", kind: kindNumber},
	{key: "stages", kind: kindObject, optional: true},
	{key: "inversion", kind: kindObject, optional: true},
	{key: "adapt", kind: kindObject, optional: true},
	{key: "netflow", kind: kindObject, optional: true},
}

// subSchemas are the required fields of each optional nested object.
var subSchemas = map[string][]field{
	"stages": {
		{key: "barrier_ns", kind: kindNumber},
		{key: "merge_ns", kind: kindNumber},
		{key: "invert_ns", kind: kindNumber},
		{key: "emit_ns", kind: kindNumber},
		{key: "total_ns", kind: kindNumber},
	},
	"inversion": {
		{key: "method", kind: kindString},
		{key: "mean_pkts", kind: kindNumber},
		{key: "tail_index", kind: kindNumber},
		{key: "flows", kind: kindNumber},
	},
	"adapt": {
		{key: "prev_rate", kind: kindNumber},
		{key: "rate", kind: kindNumber},
	},
	"netflow": {
		{key: "dest", kind: kindString},
		{key: "records", kind: kindNumber},
		{key: "datagrams", kind: kindNumber},
		{key: "send_errors", kind: kindNumber},
		{key: "flow_seq_start", kind: kindNumber},
	},
}

// checkFields validates one object against a schema slice.
func checkFields(obj map[string]any, schema []field, where string) error {
	for _, f := range schema {
		v, ok := obj[f.key]
		if !ok {
			if f.optional {
				continue
			}
			return fmt.Errorf("%s: missing required field %q", where, f.key)
		}
		switch f.kind {
		case kindNumber:
			if _, ok := v.(float64); !ok {
				return fmt.Errorf("%s: field %q is %T, want number", where, f.key, v)
			}
		case kindString:
			if _, ok := v.(string); !ok {
				return fmt.Errorf("%s: field %q is %T, want string", where, f.key, v)
			}
		case kindObject:
			sub, ok := v.(map[string]any)
			if !ok {
				return fmt.Errorf("%s: field %q is %T, want object", where, f.key, v)
			}
			if err := checkFields(sub, subSchemas[f.key], where+"."+f.key); err != nil {
				return err
			}
		}
	}
	return nil
}

// ValidateJournal reads a journal stream line by line and checks every
// bin record against the schema: each line must be a JSON object with
// time, level and msg; lines whose msg is "bin" must carry a record
// object with all required fields at their required types. It returns
// the number of bin records seen; zero bins with a nil error means the
// stream held no journal records (which callers may treat as a failure).
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
		var obj map[string]any
		if err := json.Unmarshal(raw, &obj); err != nil {
			return bins, fmt.Errorf("journal line %d: not a JSON object: %w", line, err)
		}
		where := fmt.Sprintf("journal line %d", line)
		if err := checkFields(obj, []field{
			{key: "time", kind: kindString},
			{key: "level", kind: kindString},
			{key: "msg", kind: kindString},
		}, where); err != nil {
			return bins, err
		}
		if obj["msg"] != journalMsg {
			continue // operational record sharing the stream
		}
		rec, ok := obj["record"].(map[string]any)
		if !ok {
			return bins, fmt.Errorf("%s: bin record missing \"record\" object", where)
		}
		if err := checkFields(rec, recordSchema, where+".record"); err != nil {
			return bins, err
		}
		bins++
	}
	return bins, sc.Err()
}
