package pipeline

import (
	"io"
	"log/slog"
	"time"

	"flowrank/internal/netflow"
	"flowrank/internal/obs"
	"flowrank/internal/stream"
)

// nfWarnEvery spaces the rate-limited NetFlow write-failure warnings: a
// blackholed collector fails every bin, and one warning per failure
// would turn the operational log into the failure.
const nfWarnEvery = int64(30 * time.Second)

// exporter is the one NetFlow v5 export path: each bin's sampled top list
// is encoded under the sampling interval of the rate that produced it (a
// v5 header carries exactly one interval and -adapt moves the rate
// between bins, so datagrams never span bins) and written, one datagram
// per Write, as the bin closes. It runs on Run's goroutine only.
type exporter struct {
	w    io.Writer
	dest string
	log  *slog.Logger
	// seq is the running v5 flow sequence — collectors compute datagram
	// loss from its deltas, so it spans bins.
	seq  int
	recs []netflow.Record // reused across bins
	// warnLast and warnDropped implement the warning rate limit: at most
	// one warning per nfWarnEvery, carrying the count of failures it
	// summarizes.
	warnLast    int64
	warnDropped int64
}

// export writes the bin's datagrams and reports the outcome for the
// journal; nil without an export target or with an empty sampled top
// list. Failures are
// counted and logged (rate-limited), never returned: losing a datagram
// must not take the monitor down (that is what the flow sequence is
// for). A front-end that needs a complete export checks the outcome.
func (x *exporter) export(b stream.BinResult, rate float64) *NetFlowRecord {
	if x == nil || len(b.SampledTop) == 0 {
		return nil
	}
	out := &NetFlowRecord{Dest: x.dest, FlowSeqStart: x.seq}
	x.recs = x.recs[:0]
	for _, e := range b.SampledTop {
		x.recs = append(x.recs, netflow.SaturatingRecord(e))
	}
	grams, err := netflow.Export(netflow.Header{
		SamplingMode:     1,
		SamplingInterval: netflow.IntervalForRate(rate),
		FlowSequence:     uint32(x.seq),
	}, x.recs)
	if err != nil {
		out.Err = err.Error()
		x.log.Error("netflow export failed",
			"bin", b.Bin, "dest", x.dest, "flow_seq", x.seq, "err", err)
		return out
	}
	for _, g := range grams {
		if _, err := x.w.Write(g); err != nil {
			out.SendErrors++
			x.warnSendFailure(b.Bin, err)
			continue
		}
		out.Datagrams++
	}
	out.Records = len(x.recs)
	x.seq += len(x.recs)
	return out
}

// warnSendFailure logs a failed datagram write with its destination and
// flow-sequence context, at most once per nfWarnEvery; suppressed
// failures are counted and reported by the next warning that passes.
func (x *exporter) warnSendFailure(bin int64, err error) {
	now := obs.Nanotime()
	// warnLast == 0 means no warning yet — the first failure always warns
	// (Nanotime is small early in the process, so a plain age check would
	// swallow it).
	if x.warnLast != 0 && now-x.warnLast < nfWarnEvery {
		x.warnDropped++
		return
	}
	x.warnLast = now
	x.log.Warn("netflow send failed",
		"bin", bin,
		"dest", x.dest,
		"flow_seq", x.seq,
		"suppressed", x.warnDropped,
		"err", err)
	x.warnDropped = 0
}
