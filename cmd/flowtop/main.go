// Command flowtop is the link monitor of the paper as a tool: it reads a
// packet trace (native or pcap), samples packets at rate p, classifies
// them into flows (5-tuple or /24 destination prefix), and prints the
// top-t sampled flows per measurement bin next to the true top-t, with the
// paper's swapped-pairs metrics. It can also export the sampled ranking as
// NetFlow v5 datagrams.
//
// Ingestion runs on the sharded streaming engine (internal/stream): one
// reader makes the sampling decisions in trace order and -workers shard
// workers keep the flow tables. The output is bit-identical for any worker
// count.
//
// Usage:
//
//	flowtop -in trace.pkts -p 0.01 -t 10 -bin 60
//	flowtop -in trace.pcap -pcap -p 0.1 -t 5 -agg prefix24
//	flowtop -in trace.pkts -p 0.01 -netflow flows.nf5 -workers 4
//	flowtop -in trace.pkts -p 0.1 -adapt 1 -invert em
//	flowtop -in trace.pkts -p 0.01 -table spacesaving -memory 4096
//
// With -table spacesaving or -table countmin the per-shard sampled flow
// tables are replaced by bounded summaries holding at most -memory flows
// each, so the monitor's sampled table stays O(memory) no matter how many
// concurrent flows the trace carries. The original tables, the truth each
// bin is scored against, stay exact and grow with the bin's flows: the
// flow counts and true top lists are those of -table exact. Bounded bins
// print the sampled summary's worst-case per-flow packet overcount next to
// the swapped-pairs counts; the sampled side is deterministic for a fixed
// -workers count but, unlike the exact tables, may differ between worker
// counts (the shard partition is an input of a sketch).
//
// With -adapt <target> the monitor closes the loop of the paper's §9:
// after every bin it feeds the bin's inversion into the adaptive
// controller and retunes the live sampling rate to the cheapest one whose
// predicted ranking metric stays at or below the target. Rate changes
// happen only at bin boundaries, on the reader goroutine, so the output
// stays bit-identical for any worker count.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"

	"flowrank/internal/pipeline"
	"flowrank/internal/report"
	"flowrank/internal/source"
	"flowrank/internal/stream"
)

// options carries the parsed command line; run is separated from main so
// the sequential-vs-sharded cross-check test can drive it in-process.
type options struct {
	pipeline.Flags // the monitor flags shared with flowrankd
	nfOut          string
}

// register declares flowtop's command line on fs.
func (o *options) register(fs *flag.FlagSet) {
	o.Flags.Register(fs)
	fs.StringVar(&o.nfOut, "netflow", "", "write each bin's sampled ranking to this file as NetFlow v5 datagrams when the bin closes (after a failed run the file holds the complete bins reported before the error)")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("flowtop: ")
	var opts options
	opts.register(flag.CommandLine)
	flag.Parse()
	if err := run(opts, os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run is flowtop: the shared monitor pipeline, run to EOF, with a per-bin
// callback that prints the text report.
func run(opts options, stdout, stderr io.Writer) error {
	if opts.In == "" {
		return errors.New("missing -in trace file")
	}
	cfg, closeJournal, err := opts.Flags.Config()
	if err != nil {
		return err
	}
	defer closeJournal()
	src, err := source.Open(opts.In, opts.Pcap)
	if err != nil {
		return err
	}
	defer src.Close()
	cfg.Source = src
	// Warnings only: the per-bin adapt decisions are already on stdout.
	cfg.Log = slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	var nfFile *os.File
	if opts.nfOut != "" {
		if nfFile, err = os.Create(opts.nfOut); err != nil {
			return err
		}
		defer nfFile.Close()
		cfg.NetFlow, cfg.NetFlowDest = nfFile, opts.nfOut
	}
	p, err := pipeline.New(cfg)
	if err != nil {
		return err
	}

	// One write per bin: a bin's report is a dozen Fprintlns, collected
	// here and flushed when the bin's callback is done — also when it
	// failed, so that stdout holds every bin reported before an error, as
	// the -netflow file does. Nothing is written outside the callback.
	out := bufio.NewWriterSize(stdout, 1<<16)
	nfRecords := 0
	err = p.Run(context.Background(), func(b stream.BinResult, rec *pipeline.BinRecord) error {
		err := printRecord(out, b, rec, opts)
		if nf := rec.NetFlow; err == nil && nf != nil {
			// A collector tolerates lost datagrams; a file with holes is a
			// failed export (the warning on stderr has the cause).
			if nf.Err != "" || nf.SendErrors > 0 {
				err = fmt.Errorf("bin %d: NetFlow export to %s failed", b.Bin, opts.nfOut)
			}
			nfRecords += nf.Records
		}
		if ferr := out.Flush(); err == nil {
			err = ferr
		}
		return err
	})
	if err != nil {
		return err
	}
	if nfFile != nil {
		if err := nfFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %d NetFlow v5 records to %s\n", nfRecords, opts.nfOut)
	}
	return nil
}

// printRecord is one bin's report: the table, then the inversion
// and the adapt decision where the run has them.
func printRecord(w io.Writer, b stream.BinResult, rec *pipeline.BinRecord, opts options) error {
	if err := printBin(w, b); err != nil {
		return err
	}
	if rec.Inversion != nil {
		if err := printInversion(w, rec.Inversion.Method, b); err != nil {
			return err
		}
	}
	if rec.Adapt != nil {
		return printAdapt(w, rec.Adapt, opts)
	}
	return nil
}

// printAdapt renders the closed loop's decision for the bin under its
// table: the retune (even when the refit confirmed the current rate), or
// the reason the rate was kept. The line formats are pinned by the
// golden-file test.
func printAdapt(w io.Writer, ad *pipeline.AdaptRecord, opts options) error {
	if ad.Reason != "" {
		_, err := fmt.Fprintf(w, "adapt: keeping p=%.4g%% (%s)\n\n", ad.PrevRate*100, ad.Reason)
		return err
	}
	_, err := fmt.Fprintf(w, "adapt: p=%.4g%% -> %.4g%% (ranking<=%.4g over top %d of N=%d fitted flows)\n\n",
		ad.PrevRate*100, ad.Rate*100, opts.Adapt, opts.TopT, ad.FittedFlows)
	return err
}

// printInversion renders the bin's inversion under its table: the
// estimate with its size quantiles at the median, the top decile, the top
// percent and the top 0.1% — the body-to-tail checkpoints an operator
// reads off a CCDF plot — or the estimator's error. The format is pinned
// by the golden-file test.
func printInversion(w io.Writer, method string, b stream.BinResult) error {
	if b.InversionErr != nil {
		_, err := fmt.Fprintf(w, "inversion (%s): %s\n\n", method, b.InversionErr)
		return err
	}
	e := b.Inversion
	q := e.Dist.QuantileCCDF
	_, err := fmt.Fprintf(w,
		"inversion (%s): mean=%.4g pkts, tail index=%.3g, est flows=%.0f, size quantiles q50=%.4g q10=%.4g q1=%.4g q0.1=%.4g\n\n",
		method, e.Mean, e.TailIndex, e.FlowCount, q(0.5), q(0.1), q(0.01), q(0.001))
	return err
}

func printBin(w io.Writer, b stream.BinResult) error {
	// Bounded tables carry a worst-case per-flow overcount; exact tables
	// report 0 and keep the line format the golden-file tests pin.
	countErr := ""
	if b.CountErr > 0 {
		countErr = fmt.Sprintf(", count err <=%d pkts", b.CountErr)
	}
	t := &report.Table{
		ID: fmt.Sprintf("bin%d", b.Bin),
		Title: fmt.Sprintf("t=[%.0fs,%.0fs) %d flows, swapped pairs: ranking %d (%.3g) detection %d (%.3g)%s",
			b.Start, b.End, b.Flows,
			b.Pairs.Ranking, b.Pairs.RankingFrac(),
			b.Pairs.Detection, b.Pairs.DetectionFrac(), countErr),
		Columns: []string{"rank", "true flow", "pkts", "sampled flow", "pkts"},
	}
	for i := range max(len(b.OrigTop), len(b.SampledTop)) {
		row := make([]interface{}, 5)
		row[0] = i + 1
		if i < len(b.OrigTop) {
			row[1] = b.OrigTop[i].Key.String()
			row[2] = b.OrigTop[i].Packets
		} else {
			row[1], row[2] = "-", "-"
		}
		if i < len(b.SampledTop) {
			row[3] = b.SampledTop[i].Key.String()
			row[4] = b.SampledTop[i].Packets
		} else {
			row[3], row[4] = "-", "-"
		}
		t.AddRow(row...)
	}
	return t.Fprint(w)
}
