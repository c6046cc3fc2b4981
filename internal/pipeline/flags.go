package pipeline

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"

	"flowrank/internal/flow"
	"flowrank/internal/flowtable"
	"flowrank/internal/invert"
)

// Flags holds the values of the command-line options flowtop and
// flowrankd share: one set of names, defaults, help texts and rejection
// rules. Each binary embeds it in its options, adds only its own flags
// and opens its own source from In and Pcap.
type Flags struct {
	In      string
	Pcap    bool
	Rate    float64
	TopT    int
	Bin     float64
	Agg     string
	Seed    uint64
	Workers int
	Invert  string
	Adapt   float64
	Table   string
	Memory  int
	Journal string
}

// Register declares the shared flags on fs, bound to f's fields.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.In, "in", "", "input trace (native or, with -pcap, pcap)")
	fs.BoolVar(&f.Pcap, "pcap", false, "input trace is a pcap file")
	fs.Float64Var(&f.Rate, "p", 0.01, "packet sampling probability, in (0, 1]")
	fs.IntVar(&f.TopT, "t", 10, "top flows to rank per bin")
	fs.Float64Var(&f.Bin, "bin", 60, "measurement bin seconds")
	fs.StringVar(&f.Agg, "agg", "5tuple", "flow definition: 5tuple or prefix24")
	fs.Uint64Var(&f.Seed, "seed", 1, "sampler seed")
	fs.IntVar(&f.Workers, "workers", runtime.GOMAXPROCS(0), "shard workers for the streaming engine")
	fs.StringVar(&f.Invert, "invert", "", "estimate the original flow-size distribution per bin: naive, tail, em, or parametric")
	fs.Float64Var(&f.Adapt, "adapt", 0, "closed-loop target for the §5 ranking metric: after every bin, refit the model to the bin's inversion and set the next bin's sampling rate to the cheapest one meeting the target (0 disables; requires -invert)")
	fs.StringVar(&f.Table, "table", "exact", "per-shard flow table: exact, map (the reference table), spacesaving, or countmin (bounded kinds keep at most -memory flows per shard)")
	fs.IntVar(&f.Memory, "memory", 0, "slot budget per bounded table (0 = kind default; needs a bounded -table)")
	fs.StringVar(&f.Journal, "journal", "", "append one JSON record per bin to this file (- = stdout)")
}

// Config resolves the flags into the Config fields they determine (the
// caller adds Source, Log and the NetFlow writer) and opens the journal,
// which the returned function closes. Every rejection comes before that
// first file is touched, with an error naming the flag to change.
func (f Flags) Config() (Config, func() error, error) {
	cfg := Config{
		Rate:        f.Rate,
		Seed:        f.Seed,
		TopT:        f.TopT,
		BinSeconds:  f.Bin,
		Workers:     f.Workers,
		AdaptTarget: f.Adapt,
	}
	switch f.Agg {
	case "5tuple":
		cfg.Agg = flow.FiveTuple{}
	case "prefix24":
		cfg.Agg = flow.DstPrefix{Bits: 24}
	default:
		return Config{}, nil, fmt.Errorf("unknown -agg %q (want 5tuple or prefix24)", f.Agg)
	}
	var err error
	if cfg.Inverter, err = inverterByName(f.Invert); err != nil {
		return Config{}, nil, err
	}
	if cfg.Tables, err = flowtable.ParseSpec(f.Table, f.Memory); err != nil {
		return Config{}, nil, err
	}
	if f.Memory != 0 && cfg.Tables.Exact() {
		return Config{}, nil, errors.New("-memory budgets a bounded table: add -table spacesaving or -table countmin, or drop -memory")
	}
	if err := cfg.validate(); err != nil {
		return Config{}, nil, err
	}

	closeJournal := func() error { return nil }
	switch f.Journal {
	case "":
	case "-":
		cfg.Journal = NewJournal(os.Stdout)
	default:
		jf, err := os.OpenFile(f.Journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return Config{}, nil, fmt.Errorf("opening -journal: %w", err)
		}
		cfg.Journal, closeJournal = NewJournal(jf), jf.Close
	}
	return cfg, closeJournal, nil
}

// inverterByName maps the -invert flag to an estimator; "" disables the
// inversion stage.
func inverterByName(name string) (invert.Estimator, error) {
	switch name {
	case "":
		return nil, nil
	case "naive":
		return invert.Naive{}, nil
	case "tail":
		return invert.TailScaling{}, nil
	case "em":
		return invert.EM{}, nil
	case "parametric":
		return invert.Parametric{}, nil
	}
	return nil, fmt.Errorf("unknown -invert %q (want naive, tail, em, or parametric)", name)
}
