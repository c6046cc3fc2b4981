// Command tracegen synthesizes packet-level traces with the paper's
// workload statistics and writes them in the native binary format or as
// pcap, the two formats flowtop and flowrankd read. Exactly one of
// -packets and -pcap picks the format.
//
// Usage:
//
//	tracegen -preset sprint5 -seconds 10 -packets -o trace.pkts # packet records
//	tracegen -preset abilene -seconds 10 -pcap -o trace.pcap    # real frames
//
// Presets: sprint5 (5-tuple Sprint), sprint24 (/24 prefix Sprint),
// abilene (short-tailed, more flows). -rate scales the flow arrival rate.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"flowrank/internal/flow"
	"flowrank/internal/layers"
	"flowrank/internal/packet"
	"flowrank/internal/packetgen"
	"flowrank/internal/pcap"
	"flowrank/internal/tracegen"
)

// options carries the parsed command line; run is separated from main so
// tests can drive it in-process.
type options struct {
	preset    string
	seconds   float64
	seed      uint64
	rateScale float64
	packets   bool
	asPcap    bool
	out       string
}

// register declares tracegen's command line on fs.
func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.preset, "preset", "sprint5", "workload: sprint5, sprint24, abilene")
	fs.Float64Var(&o.seconds, "seconds", 60, "trace duration")
	fs.Uint64Var(&o.seed, "seed", 1, "generator seed")
	fs.Float64Var(&o.rateScale, "rate", 1, "flow arrival rate multiplier")
	fs.BoolVar(&o.packets, "packets", false, "emit a native packet trace")
	fs.BoolVar(&o.asPcap, "pcap", false, "emit a pcap file with real Ethernet/IPv4 frames")
	fs.StringVar(&o.out, "o", "", "output file (required)")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	var opts options
	opts.register(flag.CommandLine)
	flag.Parse()
	if err := run(opts, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run is tracegen: it checks the command line before it creates -o, then
// writes the trace.
func run(opts options, stderr io.Writer) (err error) {
	if opts.out == "" {
		return errors.New("missing -o output file")
	}
	if opts.packets == opts.asPcap {
		return errors.New("pick exactly one output format: -packets or -pcap")
	}
	var cfg tracegen.Config
	switch opts.preset {
	case "sprint5":
		cfg = tracegen.SprintFiveTuple(opts.seconds, opts.seed)
	case "sprint24":
		cfg = tracegen.SprintPrefix24(opts.seconds, opts.seed)
	case "abilene":
		cfg = tracegen.Abilene(opts.seconds, opts.seed)
	default:
		return fmt.Errorf("unknown preset %q", opts.preset)
	}
	cfg.ArrivalRate *= opts.rateScale

	f, err := os.Create(opts.out)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	write := writePackets
	if opts.asPcap {
		write = writePcap
	}
	if err := write(f, cfg, opts.seed); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s (%s, %.0fs, ~%d flows)\n",
		opts.out, opts.preset, opts.seconds, cfg.ExpectedFlows())
	return nil
}

func writePackets(f *os.File, cfg tracegen.Config, seed uint64) error {
	records, err := tracegen.Generate(cfg)
	if err != nil {
		return err
	}
	w, err := packet.NewWriter(f)
	if err != nil {
		return err
	}
	if err := packetgen.Stream(records, seed+1, w.Write); err != nil {
		return err
	}
	return w.Flush()
}

func writePcap(f *os.File, cfg tracegen.Config, seed uint64) error {
	records, err := tracegen.Generate(cfg)
	if err != nil {
		return err
	}
	// pcap.Writer issues two writes per frame; buffer them as the native
	// writers buffer theirs.
	bw := bufio.NewWriterSize(f, 1<<16)
	w, err := pcap.NewWriter(bw, 0)
	if err != nil {
		return err
	}
	frame := make([]byte, 0, 2048)
	const overhead = layers.EthernetHeaderLen + layers.IPv4MinHeaderLen + layers.TCPMinHeaderLen
	err = packetgen.Stream(records, seed+1, func(p packet.Packet) error {
		key := p.Key
		if key.Proto != flow.ProtoTCP && key.Proto != flow.ProtoUDP {
			key.Proto = flow.ProtoTCP
		}
		payload := p.Size - overhead
		if payload < 0 {
			payload = 0
		}
		var err error
		frame, err = layers.Frame(frame[:0], key, payload, uint32(p.Time*1e6))
		if err != nil {
			return err
		}
		return w.Write(pcap.Packet{Time: p.Time, Data: frame})
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
