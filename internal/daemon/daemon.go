// Package daemon is the long-running form of the paper's link monitor:
// it streams packets from any source.PacketSource through the sharded
// stream.Engine indefinitely, keeps the §9 closed adaptive loop running
// bin after bin, and exposes what the monitor is doing — ingest and
// sample rates, per-bin ranking/detection quality, the inverted
// flow-size distribution, the live sampling probability — as a
// Prometheus scrape endpoint, with NetFlow v5 export as a UDP network
// service.
//
// The daemon observes itself on three surfaces: /metrics (current state,
// including the stream engine's per-stage pipeline telemetry and the Go
// runtime's view of the process), the structured bin journal (one JSON
// record per completed bin, see pipeline.BinRecord), and opt-in net/http/pprof
// profiling on the same listener.
//
// The monitor itself — sampler, engine, adaptive loop, NetFlow export,
// journal — is internal/pipeline, shared with cmd/flowtop, and configured
// by its Config (Config.Monitor here, not a copy of its fields); this
// package adds the HTTP surface and maps each bin's record onto metrics.
//
// Lifecycle: New validates the configuration and binds the HTTP
// listener (so callers can pass ":0" and read Addr before scraping);
// Run serves until the context is canceled or the source ends. On
// cancellation the daemon drains gracefully: the pipeline closes the
// source to unblock a pending read and flushes the final partial bin —
// a drained daemon reports the measurements it has.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"flowrank/internal/pipeline"
	"flowrank/internal/stream"
)

// readHeaderTimeout is how long a client may take to send a request
// header. Without it a connection that never sends one pins a goroutine
// and a descriptor for the life of the daemon. It does not govern the
// wait between requests on a kept-alive connection (IdleTimeout does,
// and stays unset): a scraper's connection outlives any scrape interval.
// A variable only so the tests need not wait five seconds.
var readHeaderTimeout = 5 * time.Second

// Config describes one daemon: the monitor it runs and the network
// surfaces around it. ListenAddr and what pipeline.Config requires
// (Source, Agg, Rate, BinSeconds) are required.
type Config struct {
	// Monitor is the pipeline configuration. The daemon closes Source
	// during drain to unblock a pending read and sets
	// NetFlow/NetFlowDest itself from NetFlowAddr.
	Monitor pipeline.Config
	// ListenAddr is the HTTP address for /metrics and /healthz
	// (host:port; ":0" picks a free port, see Daemon.Addr). Required.
	ListenAddr string
	// NetFlowAddr, when set, is the UDP host:port every bin's sampled
	// top list is exported to as NetFlow v5 datagrams.
	NetFlowAddr string
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the same
	// listener as /metrics. Off by default: profiling endpoints expose
	// execution detail an operator must opt into.
	EnablePprof bool
}

// Daemon is a constructed monitor, ready to Run.
type Daemon struct {
	cfg  Config
	m    *metricSet
	pipe *pipeline.Pipeline
	ln   net.Listener
	nf   net.Conn
}

// New validates cfg, binds the HTTP listener and (when configured) the
// NetFlow UDP socket. A returned Daemon must be Run; Run releases both.
func New(cfg Config) (*Daemon, error) {
	if cfg.ListenAddr == "" {
		return nil, errors.New("daemon: Config.ListenAddr is required")
	}
	mon := &cfg.Monitor
	if mon.Log == nil {
		mon.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	var nf net.Conn
	if cfg.NetFlowAddr != "" {
		conn, err := net.Dial("udp", cfg.NetFlowAddr)
		if err != nil {
			return nil, fmt.Errorf("daemon: netflow target %s: %w", cfg.NetFlowAddr, err)
		}
		nf = conn
		mon.NetFlow, mon.NetFlowDest = conn, cfg.NetFlowAddr
	}
	d := &Daemon{cfg: cfg, nf: nf}
	var err error
	if d.pipe, err = pipeline.New(d.cfg.Monitor); err == nil {
		if d.ln, err = net.Listen("tcp", cfg.ListenAddr); err != nil {
			err = fmt.Errorf("daemon: listen %s: %w", cfg.ListenAddr, err)
		}
	}
	if err != nil {
		if d.nf != nil {
			d.nf.Close()
		}
		return nil, err
	}
	d.m = newMetricSet(d.pipe)
	return d, nil
}

// Addr is the bound HTTP address — the scrape target, resolved even when
// ListenAddr asked for port 0.
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// Run serves until ctx is canceled. The source is fed through the
// pipeline on this goroutine; /metrics and /healthz are served
// throughout, including after a finite source hits EOF (the final values
// stay scrapeable until shutdown). Run returns nil after a clean drain or
// EOF, or the first fatal error (corrupt source, HTTP serve failure).
func (d *Daemon) Run(ctx context.Context) error {
	defer d.ln.Close()
	if d.nf != nil {
		defer d.nf.Close()
	}
	defer d.m.up.Set(0)

	mux := http.NewServeMux()
	mux.Handle("/metrics", d.m.reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if d.cfg.EnablePprof {
		// net/http/pprof self-registers only on the default mux; this
		// daemon serves a private mux, so mount the handlers explicitly.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// A failed HTTP server stops the pipeline as the caller's context does.
	pctx, stop := context.WithCancel(ctx)
	defer stop()
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- srv.Serve(d.ln)
		stop()
	}()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
	}()

	d.m.up.Set(1)
	if err := d.pipe.Run(pctx, d.onBin); err != nil {
		return err
	}
	select {
	case err := <-serveErr:
		return fmt.Errorf("daemon: http serve: %w", err)
	default:
	}
	if ctx.Err() != nil {
		return nil // drained: the pipeline flushed the partial final bin
	}
	d.m.sourceEOF.Set(1)
	d.cfg.Monitor.Log.Info("source drained; serving metrics until shutdown")
	// Keep the observability surface up so the final values can be
	// scraped; only the context ends a daemon.
	select {
	case <-ctx.Done():
		return nil
	case err := <-serveErr:
		return fmt.Errorf("daemon: http serve: %w", err)
	}
}

// onBin projects the finished bin and the pipeline's record of it onto
// /metrics. It runs before the bin's journal line is written, so a record
// on disk is already counted in flowrankd_bins_total. b and rec are only
// valid until it returns, so what the last-bin gauges read is copied out.
func (d *Daemon) onBin(b stream.BinResult, rec *pipeline.BinRecord) error {
	m := d.m
	m.bins.Inc()
	m.sampled.Add(rec.SampledPackets)
	next := &lastBin{
		rec:            *rec,
		rankingPairs:   b.Pairs.Ranking,
		detectionPairs: b.Pairs.Detection,
		inv:            m.last.Load().inv,
		rate:           d.pipe.Rate(), // after this bin's retune, if any
	}
	next.rec.Stages, next.rec.Inversion, next.rec.Adapt, next.rec.NetFlow = nil, nil, nil, nil
	if inv := rec.Inversion; inv != nil && inv.Err == "" {
		next.inv = *inv
	}
	m.last.Store(next)
	if nf := rec.NetFlow; nf != nil {
		m.nfRecords.Add(int64(nf.Records))
		m.nfDatagrams.Add(int64(nf.Datagrams))
		m.nfErrors.Add(int64(nf.SendErrors))
		if nf.Err != "" {
			m.nfErrors.Inc()
		}
	}
	if ad := rec.Adapt; ad != nil && ad.Applied {
		m.adaptChanges.Inc()
	}
	m.binLatency.Observe(rec.Stages.Emit)
	return nil
}
