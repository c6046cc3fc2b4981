package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// runArgs runs tracegen on the command line args, as the binary would.
func runArgs(t *testing.T, args ...string) error {
	t.Helper()
	var opts options
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	opts.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return run(opts, io.Discard)
}

// TestOutputDigests pins every byte tracegen writes, in both formats, for
// 2 s sprint5 and sprint24 traces at two seeds. Both formats are expanded
// from tracegen.Generate's flow records by packetgen.Stream, so any change
// to the records, the expansion's merge order, its per-flow randomness or
// its packet sizes shows here as a digest mismatch.
func TestOutputDigests(t *testing.T) {
	cases := []struct {
		preset string
		seed   uint64
		format string
		sha256 string
	}{
		{"sprint5", 1, "-packets", "44d2872befc392f6637b9adb9f436aaa164bd327cbaef8e471c3b63f36e6f43f"},
		{"sprint5", 1, "-pcap", "edaca039a7763f751f362b68ae950cdcf8aca65e3751b84aaefda52cabfa7036"},
		{"sprint5", 7, "-packets", "5bdf56ee7fa0be6d9d01c34ecf3196e44e5a5f32e6e56bfa527e9173abfdf320"},
		{"sprint5", 7, "-pcap", "7c4c7082a9dbdfbcece17653c4c9a11a8ed6f5bcd58e4059057220173662addd"},
		{"sprint24", 1, "-packets", "bc1720e4493e570ce9d6b047489a8e3f14c10902ccfa8c66e31124c791b2d9d9"},
		{"sprint24", 1, "-pcap", "9985f2bde54a8e8fbac3e0f7742ec0ac1e462e84d13acf42155afe50701131d5"},
		{"sprint24", 7, "-packets", "a6485797a8f11b48785d65062ddea8b2fc3bc9eae689fcecd7b18fa3701bc3e5"},
		{"sprint24", 7, "-pcap", "b4e4d636c80c31e66641e802d584444c8dd5d984e2ed75cc67099c9f1723e063"},
	}
	dir := t.TempDir()
	for _, c := range cases {
		out := filepath.Join(dir, "trace")
		if err := runArgs(t, "-preset", c.preset, "-seconds", "2", "-seed", strconv.FormatUint(c.seed, 10), "-o", out, c.format); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.sha256 {
			t.Errorf("%s seed %d %q: sha256 %s, want %s", c.preset, c.seed, c.format, got, c.sha256)
		}
	}
}

// TestOutputFormatRequired checks that tracegen writes exactly one of the
// two formats the monitor reads: a command line with neither -packets nor
// -pcap, or with both, is an error naming both flags, and no -o file is
// created.
func TestOutputFormatRequired(t *testing.T) {
	for _, c := range []struct {
		name  string
		flags []string
	}{
		{"neither", nil},
		{"both", []string{"-packets", "-pcap"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "trace")
			err := runArgs(t, append([]string{"-seconds", "1", "-o", out}, c.flags...)...)
			if err == nil || !strings.Contains(err.Error(), "-packets") || !strings.Contains(err.Error(), "-pcap") {
				t.Errorf("err = %v, want one naming -packets and -pcap", err)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("-o file: stat err = %v, want not exist", err)
			}
		})
	}
}
