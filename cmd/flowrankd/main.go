// Command flowrankd is the link monitor of the paper as a long-running
// service: it streams packets — a replayed trace (optionally paced at
// line rate and looped forever), a pcap file, or a live interface when
// built with -tags live — through the sampled ranking pipeline and
// exposes the monitor's behavior as a Prometheus scrape endpoint
// (/metrics, plus /healthz) while optionally exporting each bin's
// sampled top list as NetFlow v5 datagrams over UDP.
//
// Usage:
//
//	flowrankd -in trace.pkts -listen :9465
//	flowrankd -in trace.pkts -loop -speed 1 -p 0.01 -t 10 -bin 60
//	flowrankd -in trace.pcap -pcap -netflow-udp collector:2055
//	flowrankd -in trace.pkts -p 0.1 -invert parametric -adapt 1
//	flowrankd -live eth0            (requires a -tags live build, linux)
//
// SIGINT/SIGTERM drain gracefully: the daemon stops reading, flushes the
// final partial measurement bin (so its metrics and NetFlow export are
// complete), and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"syscall"

	"flowrank/internal/daemon"
	"flowrank/internal/pipeline"
	"flowrank/internal/source"
)

// options carries the parsed command line; run is separated from main so
// tests can drive the validation and wiring in-process.
type options struct {
	pipeline.Flags // the monitor flags shared with flowtop
	live           string
	loop           bool
	speed          float64
	listen         string
	nfAddr         string
	pprof          bool
}

// register declares flowrankd's command line on fs.
func (o *options) register(fs *flag.FlagSet) {
	o.Flags.Register(fs)
	fs.StringVar(&o.live, "live", "", "capture from this interface instead of a trace (needs a -tags live build)")
	fs.BoolVar(&o.loop, "loop", false, "replay the trace forever, shifting timestamps monotonically with one -bin of idle time between replays")
	fs.Float64Var(&o.speed, "speed", 0, "pace replay at this multiple of line rate (1 = real time, 0 = as fast as possible)")
	fs.StringVar(&o.listen, "listen", ":9465", "HTTP address serving /metrics and /healthz")
	fs.StringVar(&o.nfAddr, "netflow-udp", "", "export each bin's sampled top list as NetFlow v5 to this UDP host:port")
	fs.BoolVar(&o.pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/ on -listen")
}

func main() {
	var opts options
	opts.register(flag.CommandLine)
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts, log); err != nil {
		log.Error("exiting", "err", err)
		os.Exit(1)
	}
}

// validate rejects combinations of flowrankd's own flags with errors that
// say what to change; the flags shared with flowtop are checked by
// pipeline.Flags.
func validate(opts options) error {
	switch {
	case opts.In == "" && opts.live == "":
		return errors.New("no input: pass -in <trace> to replay a capture, or -live <iface> to monitor an interface")
	case opts.In != "" && opts.live != "":
		return errors.New("-in and -live are mutually exclusive: replay a trace or capture live, not both")
	case opts.live != "" && opts.Pcap:
		return errors.New("-pcap describes the -in trace format; it does not apply to -live capture")
	case opts.live != "" && opts.loop:
		return errors.New("-loop replays a finite trace; a -live capture is already endless")
	case opts.live != "" && opts.speed > 0:
		return errors.New("-speed paces trace replay; a -live capture already arrives at line rate")
	}
	if !(opts.speed >= 0) || math.IsInf(opts.speed, 1) {
		return fmt.Errorf("-speed %g is not a finite, non-negative number: use 0 for unpaced replay or a positive multiple of line rate", opts.speed)
	}
	return nil
}

// buildSource assembles the ingestion chain the flags describe: the base
// source (trace, pcap, or live), wrapped by -loop, wrapped by -speed.
func buildSource(opts options) (source.PacketSource, error) {
	if opts.live != "" {
		return source.NewLive(opts.live, 0)
	}
	var src source.PacketSource
	if opts.loop {
		lp, err := source.NewLoop(func() (source.PacketSource, error) {
			return source.Open(opts.In, opts.Pcap)
		}, opts.Bin)
		if err != nil {
			return nil, err
		}
		src = lp
	} else {
		var err error
		src, err = source.Open(opts.In, opts.Pcap)
		if err != nil {
			return nil, err
		}
	}
	if opts.speed > 0 {
		src = source.Pace(src, opts.speed)
	}
	return src, nil
}

func run(ctx context.Context, opts options, log *slog.Logger) error {
	if err := validate(opts); err != nil {
		return err
	}
	cfg, closeJournal, err := opts.Flags.Config()
	if err != nil {
		return err
	}
	defer closeJournal()
	src, err := buildSource(opts)
	if err != nil {
		return err
	}
	defer src.Close()
	cfg.Source, cfg.Log = src, log
	d, err := daemon.New(daemon.Config{
		Monitor:     cfg,
		ListenAddr:  opts.listen,
		NetFlowAddr: opts.nfAddr,
		EnablePprof: opts.pprof,
	})
	if err != nil {
		return err
	}
	log.Info("serving /metrics and /healthz", "addr", d.Addr(), "pprof", opts.pprof)
	return d.Run(ctx)
}
