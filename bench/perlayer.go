package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// layerRun is the state of one traced run: what it measures into and the
// journal stage records of its traced invocations.
type layerRun struct {
	e   *env
	pr  *prepared
	tr  *tracer
	ms  *metricSet
	o   ops
	out *outcome
	// Journal stage records, one sample per bin, and their sum per traced
	// invocation.
	barrierMS, mergeMS, emitMS []float64
	flushNS                    []float64
	countErrMax                int64
	// plainWallS are the walls of the untraced flowtop invocations.
	plainWallS []float64
}

// runPerLayer is a traced run: one set-up, then untraced and traced
// (-journal) invocations in turn, then the in-process layer passes. It
// writes the spans under outDir and reports the per-layer metrics. No
// end-to-end metric is taken here.
func (e *env) runPerLayer(ctx context.Context, spec *benchSpec, w workload, seconds float64, outDir string) (*outcome, error) {
	lr := &layerRun{e: e, tr: newTracer(w.name), ms: newMetricSet(spec.PerLayer)}
	setUp := lr.tr.begin(0, "set-up", 0)
	pr, _, err := e.timedSetUp(ctx, w, 1)
	if err != nil {
		return nil, err
	}
	lr.pr = pr
	lr.tr.end(setUp)
	lr.out = &outcome{Notes: pr.notes(e), Spread: map[string]spread{}}
	lr.ms.set("source.bytes_per_pkt", float64(pr.traceBytes)/float64(pr.packets))

	budget := seconds * tracedTimeShare
	if w.daemon {
		err = lr.daemonPair(ctx, time.Duration(budget*float64(time.Second)))
	} else {
		err = lr.flowtopPairs(ctx, budget)
	}
	if err != nil {
		return nil, err
	}
	if len(lr.barrierMS) == 0 {
		return nil, errors.New("the traced invocation journaled no bin")
	}
	lr.ms.set("stream.barrier_ms_per_bin", mean(lr.barrierMS))
	lr.ms.set("stream.merge_ms_per_bin", mean(lr.mergeMS))
	lr.ms.set("emit.ms_per_bin", mean(lr.emitMS))
	lr.ms.set("flowtable.count_err_pkts_max", float64(lr.countErrMax))

	if err := lr.passes(); err != nil {
		return nil, fmt.Errorf("%s layer passes: %w", w.name, err)
	}
	if lr.out.TraceFile, err = lr.tr.write(outDir); err != nil {
		return nil, err
	}
	if rel, err := filepath.Rel(e.root, lr.out.TraceFile); err == nil {
		lr.out.TraceFile = rel
	}
	lr.o.finish(lr.ms, lr.out)
	return lr.out, nil
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// journalSpans turns the stage records of one traced invocation into child
// spans of that invocation's span.
func (lr *layerRun) journalSpans(parent, invocation int, journal []byte) error {
	recs, err := parseJournal(journal)
	if err != nil {
		return err
	}
	total := 0.0
	for _, r := range recs {
		st := r.Record.Stages
		lr.barrierMS = append(lr.barrierMS, float64(st.Barrier)/nsPerMS)
		lr.mergeMS = append(lr.mergeMS, float64(st.Merge)/nsPerMS)
		lr.emitMS = append(lr.emitMS, float64(st.Emit)/nsPerMS)
		total += float64(st.Barrier + st.Merge + st.Invert + st.Emit)
		lr.countErrMax = max(lr.countErrMax, r.Record.CountErrPkts)
		// The record is written at the end of emit; the four stages ran
		// back to back before it.
		end := lr.tr.at(r.Time)
		start := end - (st.Barrier + st.Merge + st.Invert + st.Emit)
		for _, s := range []struct {
			name, layer string
			ns          int64
		}{{"barrier", "stream", st.Barrier}, {"merge", "stream", st.Merge}, {"invert", "invert", st.Invert}, {"emit", "emit", st.Emit}} {
			lr.tr.add(span{Parent: parent, Name: s.name, Layer: s.layer, Invocation: invocation, Bin: r.Record.Bin,
				StartNS: start, EndNS: start + s.ns, Count: int64(r.Record.Flows), Origin: "program"})
			start += s.ns
		}
	}
	lr.flushNS = append(lr.flushNS, total)
	return nil
}

// flowtopPairs alternates an untraced and a traced invocation for budget
// seconds; the ratio of their throughputs is the tracing overhead.
func (lr *layerRun) flowtopPairs(ctx context.Context, budget float64) error {
	e, pr, w := lr.e, lr.pr, lr.pr.w
	var plain, traced usage
	var first *flowtopRun
	start := time.Now()
	for inv := 1; inv <= maxInvocations && (len(traced.wallS) < 1 || time.Since(start).Seconds() < budget); {
		for _, withJournal := range []bool{false, true} {
			if err := ctx.Err(); err != nil {
				return err
			}
			r := e.runFlowtop(ctx, pr, w.workers, "run", withJournal)
			lr.o.record(fmt.Sprintf("invocation %d (journal %v)", inv, withJournal), checkFlowtop(pr, &r, first))
			if first == nil {
				first = &r
			}
			if r.err == nil {
				id := lr.tr.harness(0, "flowtop", "proc", inv, -1, r.start, r.end, pr.packets)
				if withJournal {
					traced.add(r.invocation, pr.packets)
					if err := lr.journalSpans(id, inv, r.journal); err != nil {
						return err
					}
				} else {
					plain.add(r.invocation, pr.packets)
				}
			}
			inv++
		}
	}
	if len(plain.wallS) == 0 || len(traced.wallS) == 0 {
		return fmt.Errorf("%s: no invocation pair succeeded: %v", w.name, lr.o.failures)
	}
	lr.plainWallS = plain.wallS
	lr.ms.set("trace.overhead_ratio", median(traced.pktsPerS)/median(plain.pktsPerS))
	lr.ms.set("proc.sys_cpu_share", median(plain.sysShare))
	lr.ms.set("peak_rss_mb", median(plain.rssMB))
	lr.out.Notes["invocation_pairs"] = len(traced.wallS)
	if w.exactAcrossWorkers() {
		r := e.runFlowtop(ctx, pr, 2, "w2", false)
		lr.o.record("-workers 2 re-run", checkFlowtop(pr, &r, first))
		if r.err == nil {
			lr.tr.harness(0, "flowtop -workers 2", "proc", 0, -1, r.start, r.end, pr.packets)
			lr.ms.set("stream.w2_speedup", median(plain.wallS)/r.wall().Seconds())
		}
	}
	if w.adapt > 0 {
		lr.ms.set("adaptive.refits", float64(first.refits()))
	}
	return nil
}

// daemonPair runs the daemon twice, untraced then with -journal, each
// scraped for window. Scrape latency and the daemon's own series come from
// the untraced lifetime, like every number a user would see.
func (lr *layerRun) daemonPair(ctx context.Context, window time.Duration) error {
	var runs [2]*daemonRun
	for i, traced := range []bool{false, true} {
		t0 := time.Now()
		dr, err := lr.e.runDaemon(ctx, lr.pr, window, strconv.Itoa(i), traced)
		if err != nil {
			return err
		}
		dr.into(&lr.o)
		id := lr.tr.harness(0, "flowrankd", "proc", i+1, -1, t0, time.Now(), int64(dr.windowPackets()))
		if traced {
			if err := lr.journalSpans(id, i+1, dr.journal); err != nil {
				return err
			}
		}
		runs[i] = dr
	}
	dr, ms := runs[0], lr.ms
	ms.set("trace.overhead_ratio", runs[1].pktsPerS()/dr.pktsPerS())
	ms.set("peak_rss_mb", float64(dr.maxRSSKB)/kilobytesPerMB)
	lat := dr.scrapeMS
	ms.set("scrape_ms_p50", median(lat))
	lr.out.Spread["scrape_ms_p50"] = summarize(lat)
	// Named p95, reported at the highest percentile the sample supports
	// up to that; the notes say which it was.
	pct, tail := supportedTail(lat)
	ms.set("promexp.scrape_ms_p95", tail)
	lr.out.Notes["scrape_tail_percentile"] = pct
	ms.set("promexp.page_bytes", float64(len(dr.lastScrape.page)))
	delta := func(series string) float64 { return dr.last[series] - dr.first[series] }
	if n := delta("flowrankd_bin_process_seconds_count"); n > 0 {
		ms.set("daemon.bin_process_ms_mean", delta("flowrankd_bin_process_seconds_sum")/n*1e3)
	}
	ms.set("daemon.ready_ms", float64(dr.ready)/nsPerMS)
	ms.set("daemon.drain_ms", float64(dr.drain)/nsPerMS)
	ms.set("netflow.datagrams", float64(dr.sink.Datagrams))
	ms.set("netflow.records", float64(dr.sink.Records))
	ms.set("netflow.send_errors", dr.last["flowrankd_netflow_errors_total"])
	ms.set("stream.reader_stalls", delta("flowrankd_pipeline_reader_stalls_total"))
	ms.set("stream.queue_depth_max", dr.last["flowrankd_pipeline_queue_depth_max"])
	ms.set("proc.sys_cpu_share", (dr.cpuEnd.sys-dr.cpuStart.sys).Seconds()/(dr.cpuEnd.total()-dr.cpuStart.total()).Seconds())
	dr.describe(lr.out.Notes)
	lr.out.Notes["journalcheck"] = runs[1].journalCheck
	return nil
}

// passes runs the in-process layer passes and derives the metrics that
// combine them.
func (lr *layerRun) passes() error {
	pr, w, ms := lr.pr, lr.pr.w, lr.ms
	id := lr.tr.begin(0, "layer passes", pr.packets)
	lt, err := layerPasses(pr, lr.tr, id)
	if err != nil {
		return err
	}
	lr.tr.end(id)
	ms.set("source.decode_ns_per_pkt", lt.decode)
	ms.set("sampler.sample_ns_per_pkt", lt.sample)
	ms.set("sampler.kept_share", lt.keptShare)
	ms.set("flow.aggregate_hash_ns_per_pkt", lt.aggHash)
	for kind, ns := range lt.ingest {
		ms.set("flowtable."+kind+".ingest_ns_per_pkt", ns)
	}
	ms.set("flowtable.summarize_ms_per_bin", mean(lt.summarizeMS))
	ms.set("flowtable.flows_per_bin_p50", median(lt.flowsPerBin))
	ms.set("metrics.count_swapped_ms_per_bin", mean(lt.countSwappedMS))
	perBinNS := (mean(lt.summarizeMS) + mean(lt.countSwappedMS)) * nsPerMS
	if len(lt.invertMS) > 0 {
		ms.set("invert.ms_per_bin", mean(lt.invertMS))
		perBinNS += mean(lt.invertMS) * nsPerMS
	}
	ms.set("stream.engine_ns_per_pkt", lt.engine)
	// What the engine pass contains: the reader's sample and aggregate+hash,
	// one ingest per packet into the original table and one per kept packet
	// into the sampled table, and the per-bin stages. On the two-worker
	// workloads those overlap in time, so the difference goes negative.
	perPkt := lt.sample + lt.aggHash + lt.ingest[w.table]*(1+lt.keptShare)
	ms.set("stream.self_ns_per_pkt", lt.engine-perPkt-perBinNS*float64(len(lt.flowsPerBin))/float64(pr.packets))
	if len(lt.recommendMS) > 0 {
		ms.set("adaptive.recommend_ms_p50", median(lt.recommendMS))
		ms.set("adaptive.recommend_ms_max", slices.Max(lt.recommendMS))
		ms.set("core.ranking_metric_ms", lt.rankingMetricMS)
	}
	if len(lr.plainWallS) > 0 {
		// The share of an invocation's wall no span accounts for: process
		// start, report printing, and whatever the passes do not model.
		accounted := (lt.decode+perPkt)*float64(pr.packets) + mean(lr.flushNS)
		ms.set("proc.unaccounted_share", 1-accounted/(median(lr.plainWallS)*1e9))
	}
	return nil
}
