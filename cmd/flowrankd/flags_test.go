package main

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestSharedFlagSurface: flowrankd's flag set carries the thirteen monitor
// flags it shares with flowtop exactly as ../testdata/shared_flags.golden
// pins them ("name<TAB>default<TAB>usage"; cmd/flowtop's test of the same
// name owns the file and its -update).
func TestSharedFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("flowrankd", flag.ContinueOnError)
	new(options).register(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) {
		def := f.DefValue
		if f.Name == "workers" && def == strconv.Itoa(runtime.GOMAXPROCS(0)) {
			def = "GOMAXPROCS"
		}
		got[f.Name] = f.Name + "\t" + def + "\t" + f.Usage
	})
	path := filepath.Join("..", "testdata", "shared_flags.golden")
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	if len(want) != 13 {
		t.Fatalf("%s pins %d flags, want the 13 shared ones", path, len(want))
	}
	for _, line := range want {
		name, _, _ := strings.Cut(line, "\t")
		if got[name] != line {
			t.Errorf("-%s drifted from %s:\n got %q\nwant %q", name, path, got[name], line)
		}
	}
}
