package pipeline

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowrank/internal/flow"
	"flowrank/internal/flowtable"
)

// parse registers the shared flags on a fresh set and parses args, the
// way both mains do.
func parse(t *testing.T, args ...string) Flags {
	t.Helper()
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFlagValidation is the table of rejections for the flags flowtop and
// flowrankd share; every error must name the flag to change, and every
// one must come before the journal — the first file either binary opens —
// is created.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"rate above one", []string{"-p", "2"}, "sampling rate 2 outside (0, 1]"},
		{"zero rate", []string{"-p", "0"}, "outside (0, 1]"},
		{"negative rate", []string{"-p", "-0.1"}, "outside (0, 1]"},
		{"NaN rate", []string{"-p", "NaN"}, "outside (0, 1]"},
		{"adapt without invert", []string{"-adapt", "1"}, "-invert"},
		{"adapt with an empty top list", []string{"-adapt", "1", "-invert", "em", "-t", "0"}, "(-t)"},
		// Both once ran with no loop, with or without -invert.
		{"negative adapt", []string{"-adapt", "-1"}, "(-adapt)"},
		{"NaN adapt", []string{"-adapt", "NaN", "-invert", "em"}, "(-adapt)"},
		// These five once passed here and failed in the engine, after the
		// journal was created, naming a stream field instead of the flag.
		{"zero bin", []string{"-bin", "0"}, "(-bin)"},
		{"NaN bin", []string{"-bin", "NaN"}, "(-bin)"},
		{"infinite bin", []string{"-bin", "+Inf"}, "(-bin)"},
		{"negative top list", []string{"-t", "-3"}, "(-t)"},
		{"negative workers", []string{"-workers", "-1"}, "(-workers)"},
		{"memory with exact table", []string{"-memory", "4096"}, "-table"},
		{"memory with map table", []string{"-table", "map", "-memory", "4096"}, "-table"},
		{"negative memory", []string{"-table", "countmin", "-memory", "-1"}, "negative slot budget"},
		{"memory above the cap", []string{"-table", "spacesaving", "-memory", "16777217"}, "above the spacesaving maximum"},
		{"memory that would not fit a slice", []string{"-table", "countmin", "-memory", "4611686018427387904"}, "above the countmin maximum"},
		{"unknown agg", []string{"-agg", "7tuple"}, "-agg"},
		{"unknown invert", []string{"-invert", "magic"}, "-invert"},
		{"unknown table", []string{"-table", "btree"}, "btree"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "journal.jsonl")
			_, _, err := parse(t, append(tc.args, "-journal", journal)...).Config()
			if err == nil {
				t.Fatal("Config accepted the bad flags")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if _, statErr := os.Stat(journal); statErr == nil {
				t.Error("the journal was created before the flags were rejected")
			}
		})
	}
}

// TestFlagsConfig: accepted flags resolve to the Config they describe,
// and the defaults are a valid monitor.
func TestFlagsConfig(t *testing.T) {
	cfg, closeJournal, err := parse(t).Config()
	if err != nil {
		t.Fatalf("the default flags are rejected: %v", err)
	}
	closeJournal()
	if cfg.Rate != 0.01 || cfg.TopT != 10 || cfg.BinSeconds != 60 || cfg.Seed != 1 ||
		cfg.Agg != (flow.FiveTuple{}) || cfg.Inverter != nil || cfg.Journal != nil || cfg.Tables.Kind != flowtable.KindExact {
		t.Errorf("default flags resolved to %+v", cfg)
	}

	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	cfg, closeJournal, err = parse(t, "-p", "1", "-t", "3", "-bin", "5", "-agg", "prefix24", "-seed", "7",
		"-workers", "3", "-invert", "tail", "-adapt", "0.5", "-table", "spacesaving", "-memory", "64",
		"-journal", journal).Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Rate != 1 || cfg.TopT != 3 || cfg.BinSeconds != 5 || cfg.Seed != 7 || cfg.Workers != 3 ||
		cfg.Agg != (flow.DstPrefix{Bits: 24}) || cfg.Inverter.Name() != "tail" || cfg.AdaptTarget != 0.5 ||
		cfg.Tables != (flowtable.Spec{Kind: flowtable.KindSpaceSaving, Slots: 64}) || cfg.Journal == nil {
		t.Errorf("flags resolved to %+v", cfg)
	}
	if err := closeJournal(); err != nil {
		t.Error(err)
	}
	if _, err := os.Stat(journal); err != nil {
		t.Errorf("-journal file not created: %v", err)
	}
}

// TestInverterByName covers the -invert flag mapping.
func TestInverterByName(t *testing.T) {
	for _, name := range []string{"naive", "tail", "em", "parametric"} {
		est, err := inverterByName(name)
		if err != nil || est == nil || est.Name() != name {
			t.Errorf("inverterByName(%q) = %v, %v", name, est, err)
		}
	}
	if est, err := inverterByName(""); est != nil || err != nil {
		t.Errorf("empty name should disable inversion, got %v, %v", est, err)
	}
	if _, err := inverterByName("bayes"); err == nil {
		t.Error("unknown inverter accepted")
	}
}
