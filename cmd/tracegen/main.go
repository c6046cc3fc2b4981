// Command tracegen synthesizes flow-level and packet-level traces with the
// paper's workload statistics and writes them in the native binary format
// or as pcap.
//
// Usage:
//
//	tracegen -preset sprint5 -seconds 60 -o trace.flows        # flow records
//	tracegen -preset sprint5 -seconds 10 -packets -o trace.pkts # packet records
//	tracegen -preset abilene -seconds 10 -pcap -o trace.pcap    # real frames
//
// Presets: sprint5 (5-tuple Sprint), sprint24 (/24 prefix Sprint),
// abilene (short-tailed, more flows). -rate scales the flow arrival rate.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

	"flowrank/internal/flow"
	"flowrank/internal/layers"
	"flowrank/internal/packet"
	"flowrank/internal/packetgen"
	"flowrank/internal/pcap"
	"flowrank/internal/tracegen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	var (
		preset    = flag.String("preset", "sprint5", "workload: sprint5, sprint24, abilene")
		seconds   = flag.Float64("seconds", 60, "trace duration")
		seed      = flag.Uint64("seed", 1, "generator seed")
		rateScale = flag.Float64("rate", 1, "flow arrival rate multiplier")
		packets   = flag.Bool("packets", false, "emit packet-level records instead of flow records")
		asPcap    = flag.Bool("pcap", false, "emit a pcap file with real Ethernet/IPv4 frames")
		out       = flag.String("o", "", "output file (required)")
	)
	flag.Parse()
	if *out == "" {
		log.Fatal("missing -o output file")
	}

	var cfg tracegen.Config
	switch *preset {
	case "sprint5":
		cfg = tracegen.SprintFiveTuple(*seconds, *seed)
	case "sprint24":
		cfg = tracegen.SprintPrefix24(*seconds, *seed)
	case "abilene":
		cfg = tracegen.Abilene(*seconds, *seed)
	default:
		log.Fatalf("unknown preset %q", *preset)
	}
	cfg.ArrivalRate *= *rateScale

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}()

	switch {
	case *asPcap:
		if err := writePcap(f, cfg, *seed); err != nil {
			log.Fatal(err)
		}
	case *packets:
		if err := writePackets(f, cfg, *seed); err != nil {
			log.Fatal(err)
		}
	default:
		if err := writeFlows(f, cfg); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%s, %.0fs, ~%d flows)\n",
		*out, *preset, *seconds, cfg.ExpectedFlows())
}

func writeFlows(f *os.File, cfg tracegen.Config) error {
	w, err := packet.NewFlowWriter(f)
	if err != nil {
		return err
	}
	if err := tracegen.GenerateFunc(cfg, w.Write); err != nil {
		return err
	}
	return w.Flush()
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
