package main

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"flowrank/internal/pipeline"
)

// sharedFlagsGolden pins, one "name<TAB>default<TAB>usage" line each, the
// thirteen monitor flags flowtop and flowrankd share (pipeline.Flags).
var sharedFlagsGolden = filepath.Join("..", "testdata", "shared_flags.golden")

// flagLines renders every flag of fs as a golden line, by name. The
// -workers default is the machine's GOMAXPROCS and is written as that word.
func flagLines(fs *flag.FlagSet) map[string]string {
	lines := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) {
		def := f.DefValue
		if f.Name == "workers" && def == strconv.Itoa(runtime.GOMAXPROCS(0)) {
			def = "GOMAXPROCS"
		}
		lines[f.Name] = f.Name + "\t" + def + "\t" + f.Usage
	})
	return lines
}

// TestSharedFlagSurface: flowtop's flag set carries the shared monitor
// flags exactly as the golden pins them — bench/ and the e2e scripts put
// these names on both binaries' command lines, and an operator's -h shows
// these defaults and texts. flowrankd has the same test on the same file;
// -update rewrites it from pipeline.Flags.Register.
func TestSharedFlagSurface(t *testing.T) {
	if *update {
		fs := flag.NewFlagSet("shared", flag.ContinueOnError)
		new(pipeline.Flags).Register(fs)
		lines := flagLines(fs)
		var b strings.Builder
		fs.VisitAll(func(f *flag.Flag) { b.WriteString(lines[f.Name] + "\n") })
		if err := os.WriteFile(sharedFlagsGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fs := flag.NewFlagSet("flowtop", flag.ContinueOnError)
	new(options).register(fs)
	got := flagLines(fs)
	golden, err := os.ReadFile(sharedFlagsGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	if len(want) != 13 {
		t.Fatalf("%s pins %d flags, want the 13 shared ones", sharedFlagsGolden, len(want))
	}
	for _, line := range want {
		name, _, _ := strings.Cut(line, "\t")
		if got[name] != line {
			t.Errorf("-%s drifted from %s:\n got %q\nwant %q", name, sharedFlagsGolden, got[name], line)
		}
	}
}
