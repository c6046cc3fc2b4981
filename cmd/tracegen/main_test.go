package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// runMain runs the command's main with args on a fresh flag set, as the
// binary would run with that command line.
func runMain(t *testing.T, args ...string) {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
	os.Args = append([]string{"tracegen"}, args...)
	flag.CommandLine = flag.NewFlagSet("tracegen", flag.ExitOnError)
	main()
}

// TestOutputDigests pins every byte tracegen writes, in all three formats,
// for 2 s sprint5 and sprint24 traces at two seeds. The packet and pcap
// formats run the flow-to-packet expansion (packetgen.Stream), so any
// change to its merge order, per-flow randomness or packet sizes shows
// here as a digest mismatch.
func TestOutputDigests(t *testing.T) {
	cases := []struct {
		preset string
		seed   uint64
		format string // "" writes flow records
		sha256 string
	}{
		{"sprint5", 1, "", "c17f85b95212f2c5b92a6c683d5e56a6a9c79d7ec41c0b95eff98b561450b938"},
		{"sprint5", 1, "-packets", "44d2872befc392f6637b9adb9f436aaa164bd327cbaef8e471c3b63f36e6f43f"},
		{"sprint5", 1, "-pcap", "edaca039a7763f751f362b68ae950cdcf8aca65e3751b84aaefda52cabfa7036"},
		{"sprint5", 7, "", "0242a8a644d7028e494d729a14103d83f9439b5c14f52d8d5fdd9ecd7eecbc48"},
		{"sprint5", 7, "-packets", "5bdf56ee7fa0be6d9d01c34ecf3196e44e5a5f32e6e56bfa527e9173abfdf320"},
		{"sprint5", 7, "-pcap", "7c4c7082a9dbdfbcece17653c4c9a11a8ed6f5bcd58e4059057220173662addd"},
		{"sprint24", 1, "", "c5ea2328460488b06e026e50e577f7502e9ca1f9bc9a8e441cb09ebc333a5b69"},
		{"sprint24", 1, "-packets", "bc1720e4493e570ce9d6b047489a8e3f14c10902ccfa8c66e31124c791b2d9d9"},
		{"sprint24", 1, "-pcap", "9985f2bde54a8e8fbac3e0f7742ec0ac1e462e84d13acf42155afe50701131d5"},
		{"sprint24", 7, "", "c0a0d9de76c401c9486dff2102e2b73bb5ea83915715249868ea73ff9b78785a"},
		{"sprint24", 7, "-packets", "a6485797a8f11b48785d65062ddea8b2fc3bc9eae689fcecd7b18fa3701bc3e5"},
		{"sprint24", 7, "-pcap", "b4e4d636c80c31e66641e802d584444c8dd5d984e2ed75cc67099c9f1723e063"},
	}
	dir := t.TempDir()
	for _, c := range cases {
		out := filepath.Join(dir, "trace")
		args := []string{"-preset", c.preset, "-seconds", "2", "-seed", strconv.FormatUint(c.seed, 10), "-o", out}
		if c.format != "" {
			args = append(args, c.format)
		}
		runMain(t, args...)
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
