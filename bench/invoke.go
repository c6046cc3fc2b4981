package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"time"
)

// invocation is one finished subprocess as seen from outside: wall clock
// around start..wait, CPU time from the rusage the kernel hands back at
// wait, peak memory from /proc while it ran.
type invocation struct {
	start, end time.Time
	user, sys  time.Duration
	maxRSSKB   int64
	stdout     []byte
	stderr     []byte
	err        error // start failure, non-zero exit, or timeout
}

func (i invocation) wall() time.Duration { return i.end.Sub(i.start) }
func (i invocation) cpu() time.Duration  { return i.user + i.sys }

// runProgram runs one program to completion under a time limit.
func runProgram(ctx context.Context, limit time.Duration, path string, args ...string) invocation {
	ctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, path, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	inv := invocation{start: time.Now()}
	if inv.err = cmd.Start(); inv.err == nil {
		peak := watchPeakRSS(cmd.Process.Pid)
		inv.err = cmd.Wait()
		inv.end = time.Now()
		inv.maxRSSKB = peak()
	} else {
		inv.end = time.Now()
	}
	inv.stdout, inv.stderr = stdout.Bytes(), stderr.Bytes()
	if ctx.Err() != nil {
		inv.err = fmt.Errorf("%s: %w after %s", filepath.Base(path), ctx.Err(), limit)
	}
	if ps := cmd.ProcessState; ps != nil {
		inv.user, inv.sys = ps.UserTime(), ps.SystemTime()
	}
	return inv
}

// watchPeakRSS polls the peak resident set (VmHWM) of a running process
// and returns a function that stops the polling and reports the highest
// value seen, in kilobytes. It is the counter behind ru_maxrss, read from
// the child's own address space: the ru_maxrss wait hands back also
// covers the parent's memory at fork time (os/exec forks with a shared
// address space), and the harness is often larger than the program it
// measures. A peak reached in the last poll interval before exit is
// missed; the programs reach theirs at the last bin flush, well before
// they finish printing.
func watchPeakRSS(pid int) (stop func() int64) {
	const every = 5 * time.Millisecond
	status := "/proc/" + strconv.Itoa(pid) + "/status"
	done := make(chan struct{})
	result := make(chan int64, 1)
	go func() {
		var peak int64
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			if data, err := os.ReadFile(status); err == nil {
				peak = max(peak, parseVmHWM(data))
			}
			select {
			case <-done:
				result <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() int64 {
		close(done)
		return <-result
	}
}

// parseVmHWM extracts "VmHWM:  12345 kB" from a /proc/<pid>/status page;
// 0 when the line is missing (a process that already released its memory).
func parseVmHWM(status []byte) int64 {
	i := bytes.Index(status, []byte("VmHWM:"))
	if i < 0 {
		return 0
	}
	f := bytes.Fields(status[i+len("VmHWM:"):])
	if len(f) == 0 {
		return 0
	}
	kb, _ := strconv.ParseInt(string(f[0]), 10, 64)
	return kb
}

// flowtopRun is one flowtop invocation of a workload plus what it wrote
// beside stdout.
type flowtopRun struct {
	invocation
	sha     [32]byte
	bins    []printedBin
	netflow []byte // the -netflow file, when the workload exports
	journal []byte // the -journal file, when traced
}

// refits counts the bins the closed loop refitted (an `adapt:` line that
// is not "keeping").
func (r *flowtopRun) refits() int {
	n := 0
	for _, b := range r.bins {
		if b.hasAdapt && !b.AdaptKept {
			n++
		}
	}
	return n
}

// runFlowtop invokes flowtop on the prepared trace. id names the run's
// side files; traced adds -journal.
func (e *env) runFlowtop(ctx context.Context, pr *prepared, workers int, id string, traced bool) flowtopRun {
	args := pr.w.monitorArgs(pr.tracePath, workers)
	nfPath := filepath.Join(e.tmp, pr.w.name+"-"+id+".nf5")
	jPath := filepath.Join(e.tmp, pr.w.name+"-"+id+".journal")
	if pr.w.netflow {
		args = append(args, "-netflow", nfPath)
	}
	if traced {
		args = append(args, "-journal", jPath)
	}
	r := flowtopRun{invocation: runProgram(ctx, invokeTimeout, filepath.Join(e.bin, "flowtop"), args...)}
	r.sha = sha256.Sum256(r.stdout)
	if r.err != nil {
		r.err = fmt.Errorf("%w: %s", r.err, bytes.TrimSpace(r.stderr))
		return r
	}
	if r.bins, r.err = parseReport(r.stdout); r.err != nil {
		return r
	}
	if pr.w.netflow {
		r.netflow, r.err = os.ReadFile(nfPath)
		os.Remove(nfPath)
	}
	if traced && r.err == nil {
		r.journal, r.err = os.ReadFile(jPath)
		os.Remove(jPath)
	}
	return r
}

var wroteRecordsRE = regexp.MustCompile(`wrote (\d+) NetFlow v5 records`)

// checkFlowtop is the correctness gate of one invocation; it returns the
// reasons the invocation counts as a failed operation (none = passed).
// first is the workload's first invocation at the same worker count: every
// later one must print byte-identical output.
func checkFlowtop(pr *prepared, r, first *flowtopRun) []string {
	if r.err != nil {
		return []string{r.err.Error()}
	}
	var bad []string
	fail := func(format string, a ...any) { bad = append(bad, fmt.Sprintf(format, a...)) }
	if first != nil && r.sha != first.sha {
		fail("stdout differs from the first invocation (sha256 %x vs %x)", r.sha[:6], first.sha[:6])
	}
	if len(r.bins) == 0 {
		fail("report holds no bins")
	}
	w := pr.w
	if pr.ref != nil {
		if len(r.bins) != len(pr.ref) {
			fail("report has %d bins, reference %d", len(r.bins), len(pr.ref))
		}
		for i := 0; i < len(r.bins) && i < len(pr.ref); i++ {
			got, want := r.bins[i], pr.ref[i]
			if got.Bin != want.bin {
				fail("bin #%d is bin %d, reference bin %d", i, got.Bin, want.bin)
				continue
			}
			if w.table == "exact" {
				if got.Flows != want.flows || got.Ranking != want.pairs.Ranking || got.Detection != want.pairs.Detection {
					fail("bin %d: flows/ranking/detection %d/%d/%d, reference %d/%d/%d", got.Bin,
						got.Flows, got.Ranking, got.Detection, want.flows, want.pairs.Ranking, want.pairs.Detection)
				}
				if !sameFlows(got.TrueTop, want.trueTop) {
					fail("bin %d: true top-%d differs from the reference", got.Bin, w.topT)
				}
				if !sameFlows(got.SampledTop, want.sampledTop) {
					fail("bin %d: sampled top-%d differs from the reference", got.Bin, w.topT)
				}
				continue
			}
			// Bounded tables overcount a flow by at most the printed bound
			// and never undercount it.
			for _, col := range []struct {
				name  string
				rows  []printedFlow
				exact map[string]int64
			}{{"true", got.TrueTop, want.orig}, {"sampled", got.SampledTop, want.sampled}} {
				for _, f := range col.rows {
					if ex := col.exact[f.Key]; f.Pkts < ex || f.Pkts > ex+got.CountErr {
						fail("bin %d: %s flow %s printed %d pkts, exact %d, count err <=%d",
							got.Bin, col.name, f.Key, f.Pkts, ex, got.CountErr)
					}
				}
			}
		}
	}
	if w.adapt > 0 {
		for _, b := range r.bins {
			if !b.hasAdapt {
				fail("bin %d: no adapt line", b.Bin)
			} else if !(b.AdaptTo > 0 && b.AdaptTo <= 1) || !(b.AdaptFrom > 0 && b.AdaptFrom <= 1) {
				fail("bin %d: adapt rates %g -> %g outside (0, 1]", b.Bin, b.AdaptFrom, b.AdaptTo)
			}
		}
		if r.refits() == 0 {
			fail("no bin was refitted")
		}
	}
	if w.netflow {
		t, err := nf5File(r.netflow)
		m := wroteRecordsRE.FindSubmatch(r.stderr)
		switch {
		case err != nil:
			fail("netflow file: %v", err)
		case m == nil:
			fail("flowtop did not report its NetFlow record count")
		default:
			if n, _ := strconv.Atoi(string(m[1])); n != t.Records || t.Gaps != 0 || t.Records == 0 {
				fail("netflow file holds %d records in %d datagrams with %d sequence gaps; flowtop reported %d",
					t.Records, t.Datagrams, t.Gaps, n)
			}
		}
	}
	return bad
}

func sameFlows(a, b []printedFlow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
