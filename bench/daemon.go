package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The daemon-scrape load: the harness is the only client. One goroutine
// scrapes /metrics over one kept-alive HTTP connection on a fixed schedule
// (open loop: a slow scrape does not delay the next due time, and latency
// is timed from the due time), one goroutine receives the NetFlow export
// on a loopback UDP socket. Everything crosses the loopback interface.
const (
	scrapeInterval = 25 * time.Millisecond
	scrapeLimit    = 250 * time.Millisecond // slower, or an error, is a failed operation
	readyLimit     = 10 * time.Second
	drainLimit     = 10 * time.Second
)

// scrape is one /metrics request.
type scrape struct {
	due, sent, done time.Time
	page            []byte
	err             error
}

// daemonRun is what one flowrankd lifetime produced.
type daemonRun struct {
	ready        time.Duration      // process start to the first answered scrape
	drain        time.Duration      // SIGTERM to exit
	scrapeMS     []float64          // latency from the due time, measured window only
	late         []float64          // how late each scrape was sent, ms
	first, last  map[string]float64 // parsed pages bounding the window
	firstScrape  scrape
	lastScrape   scrape
	cpuStart     cpuTime // process CPU at the window's first and last scrape
	cpuEnd       cpuTime
	sink         nf5Tally
	maxRSSKB     int64
	journal      []byte
	journalCheck string // journalcheck's verdict line, traced runs only
	failures     []string
	attempted    int
	failed       int
}

var servingRE = regexp.MustCompile(`msg="serving [^"]*" addr=(\S+)`)

// cpuTime is a process's CPU time so far.
type cpuTime struct{ user, sys time.Duration }

func (c cpuTime) total() time.Duration { return c.user + c.sys }

// procCPU reads a live process's CPU time from /proc/<pid>/stat. The
// kernel reports clock ticks; USER_HZ is 100 on every Linux ABI Go runs on.
func procCPU(pid int) (cpuTime, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return cpuTime{}, err
	}
	return parseProcStat(data)
}

func parseProcStat(data []byte) (cpuTime, error) {
	// The command name may hold spaces; fields are counted after its ')'.
	// utime and stime are fields 14 and 15 of the line, 12 and 13 after it.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return cpuTime{}, fmt.Errorf("unrecognised /proc stat line %q", data)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return cpuTime{}, err
	}
	const tick = time.Second / 100
	return cpuTime{user: time.Duration(utime) * tick, sys: time.Duration(stime) * tick}, nil
}

// runDaemon starts flowrankd on the prepared trace, scrapes it for window
// after a warm-up, stops it with SIGTERM and checks what it published. The
// process is killed on every path out of this function.
func (e *env) runDaemon(ctx context.Context, pr *prepared, window time.Duration, id string, traced bool) (*daemonRun, error) {
	sinkConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}

	args := append(pr.w.monitorArgs(pr.tracePath, pr.w.workers),
		"-loop", "-netflow-udp", sinkConn.LocalAddr().String(), "-listen", "127.0.0.1:0")
	jPath := filepath.Join(e.tmp, pr.w.name+"-"+id+".journal")
	if traced {
		args = append(args, "-journal", jPath)
		defer os.Remove(jPath)
	}
	cmd := exec.Command(filepath.Join(e.bin, "flowrankd"), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	r := &daemonRun{}
	started := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	peakRSS := watchPeakRSS(cmd.Process.Pid)
	// exited delivers the exit status with the head of the daemon's log
	// for error messages.
	type exit struct {
		err error
		log string
	}
	exited := make(chan exit, 1)
	addrCh := make(chan string, 1)
	go func() {
		// Drain stderr to EOF before Wait, as os/exec requires; the first
		// "serving" line carries the port the kernel picked.
		var logHead bytes.Buffer
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := servingRE.FindSubmatch(sc.Bytes()); m != nil {
				select {
				case addrCh <- string(m[1]):
				default:
				}
			}
			if logHead.Len() < 4<<10 {
				logHead.Write(sc.Bytes())
				logHead.WriteByte('\n')
			}
		}
		exited <- exit{cmd.Wait(), logHead.String()}
	}()
	stopped := false
	defer func() {
		if !stopped {
			cmd.Process.Kill()
			<-exited
		}
		r.maxRSSKB = peakRSS()
	}()

	// The sink runs until the socket is closed, after the daemon exited;
	// r.sink is read only once it has returned.
	var sinkWG sync.WaitGroup
	sinkWG.Add(1)
	go func() {
		defer sinkWG.Done()
		buf := make([]byte, 64<<10)
		for {
			n, err := sinkConn.Read(buf)
			if err != nil {
				return
			}
			r.sink.add(buf[:n])
		}
	}()
	defer sinkWG.Wait()
	defer sinkConn.Close()

	var addr string
	select {
	case addr = <-addrCh:
	case x := <-exited:
		stopped = true
		return nil, fmt.Errorf("flowrankd exited before serving: %v\n%s", x.err, x.log)
	case <-time.After(readyLimit):
		return nil, fmt.Errorf("flowrankd did not announce its address within %s", readyLimit)
	case <-ctx.Done():
		return nil, ctx.Err()
	}

	// One connection, kept alive, for every request.
	client := &http.Client{
		Timeout:   4 * scrapeLimit,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
	defer client.CloseIdleConnections()
	url := "http://" + addr + "/metrics"
	get := func(due time.Time) scrape {
		s := scrape{due: due, sent: time.Now()}
		resp, err := client.Get(url)
		if err == nil {
			s.page, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("scrape: HTTP %d", resp.StatusCode)
			}
		}
		s.done, s.err = time.Now(), err
		return s
	}
	if s := get(time.Now()); s.err != nil {
		return nil, fmt.Errorf("first scrape: %w", s.err)
	}
	r.ready = time.Since(started)

	// Warm-up: scrape on schedule but keep nothing, so the connection, the
	// daemon's tables and the looped trace are all in steady state.
	fail := func(format string, a ...any) {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, a...))
		}
	}
	ingestedSeen := -1.0
	next := time.Now()
	windowStart := next.Add(e.size.daemonWarmUp)
	end := windowStart.Add(window)
	for due := next; due.Before(end); due = due.Add(scrapeInterval) {
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			case x := <-exited:
				stopped = true
				return nil, fmt.Errorf("flowrankd exited while being scraped: %v\n%s", x.err, x.log)
			}
		}
		s := get(due)
		if due.Before(windowStart) {
			continue
		}
		r.attempted++
		r.late = append(r.late, float64(s.sent.Sub(due))/float64(time.Millisecond))
		if s.err != nil {
			fail("scrape due +%s: %v", due.Sub(windowStart), s.err)
			continue
		}
		lat := s.done.Sub(due)
		r.scrapeMS = append(r.scrapeMS, float64(lat)/float64(time.Millisecond))
		if lat > scrapeLimit {
			fail("scrape due +%s took %s, over the %s limit", due.Sub(windowStart), lat, scrapeLimit)
		}
		m, err := parseMetrics(s.page)
		if err != nil {
			fail("scrape due +%s: %v", due.Sub(windowStart), err)
			continue
		}
		if v := m["flowrankd_packets_ingested_total"]; v < ingestedSeen {
			fail("flowrankd_packets_ingested_total fell from %v to %v", ingestedSeen, v)
		} else {
			ingestedSeen = v
		}
		cpu, err := procCPU(cmd.Process.Pid)
		if err != nil {
			fail("scrape due +%s: %v", due.Sub(windowStart), err)
			continue
		}
		if r.first == nil {
			r.first, r.firstScrape, r.cpuStart = m, s, cpu
		}
		r.last, r.lastScrape, r.cpuEnd = m, s, cpu
	}
	if r.first == nil || !r.lastScrape.done.After(r.firstScrape.done) {
		return nil, errors.New("no two scrapes succeeded in the window")
	}

	// Drain: SIGTERM must flush the last bin and exit 0.
	t0 := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, err
	}
	select {
	case x := <-exited:
		stopped = true
		r.drain = time.Since(t0)
		r.attempted++
		if x.err != nil {
			fail("flowrankd did not exit cleanly on SIGTERM: %v\n%s", x.err, x.log)
		}
	case <-time.After(drainLimit):
		return nil, fmt.Errorf("flowrankd still running %s after SIGTERM", drainLimit)
	}
	// Loopback delivery is synchronous with the send, so everything the
	// daemon exported is in the socket buffer by now: the sink drains it
	// and stops at the deadline once nothing is left.
	sinkConn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	sinkWG.Wait()

	// Every datagram the daemon says it sent is an operation; one missing
	// at the sink (a gap in the v5 flow sequence) or malformed is a failure.
	sink := r.sink
	r.attempted += sink.Datagrams + sink.Gaps + sink.Malformed
	for i := 0; i < sink.Gaps; i++ {
		fail("NetFlow flow-sequence gap at the sink: a datagram is missing")
	}
	for i := 0; i < sink.Malformed; i++ {
		fail("malformed NetFlow datagram at the sink (version field or length)")
	}
	if sent := int(r.last["flowrankd_netflow_datagrams_total"]); sink.Datagrams < sent {
		fail("sink holds %d datagrams, the last scrape already counted %d sent", sink.Datagrams, sent)
	}
	if sink.Datagrams == 0 {
		fail("no NetFlow datagram reached the sink")
	}
	if n := r.last["flowrankd_netflow_errors_total"]; n != 0 {
		fail("flowrankd_netflow_errors_total = %v", n)
	}
	if traced {
		e.checkJournal(ctx, r, jPath, sink, fail)
	}
	return r, nil
}

// checkJournal ties the traced daemon's journal to its /metrics and to the
// sink: journalcheck must accept it, its export totals must equal what
// the sink received, and the records written before / after the last
// scrape must bracket flowrankd_bins_total as that scrape reported it (the
// counter moves at the start of a bin's emit, the record is written at
// its end, hence the +1).
func (e *env) checkJournal(ctx context.Context, r *daemonRun, path string, sink nf5Tally, fail func(string, ...any)) {
	var err error
	if r.journal, err = os.ReadFile(path); err != nil {
		fail("journal: %v", err)
		return
	}
	recs, err := parseJournal(r.journal)
	if err != nil {
		fail("journal: %v", err)
		return
	}
	jc := runProgram(ctx, invokeTimeout, filepath.Join(e.bin, "journalcheck"), "-min-bins", strconv.Itoa(len(recs)), path)
	r.journalCheck = string(bytes.TrimSpace(jc.stdout))
	r.attempted++
	if jc.err != nil {
		fail("journalcheck: %v: %s", jc.err, bytes.TrimSpace(jc.stderr))
	} else if want := fmt.Sprintf("journal ok: %d bin records", len(recs)); r.journalCheck != want {
		fail("journalcheck said %q, want %q", r.journalCheck, want)
	}
	var before, after, datagrams, records, sendErrors int
	for _, rec := range recs {
		if rec.Time.Before(r.lastScrape.sent) {
			before++
		}
		if !rec.Time.After(r.lastScrape.done) {
			after++
		}
		if nf := rec.Record.NetFlow; nf != nil {
			datagrams += nf.Datagrams
			records += nf.Records
			sendErrors += nf.SendErrors
		}
	}
	if bins := int(r.last["flowrankd_bins_total"]); bins < before || bins > after+1 {
		fail("flowrankd_bins_total = %d at the last scrape, journal holds %d records before it and %d after", bins, before, after)
	}
	if datagrams != sink.Datagrams || records != sink.Records || sendErrors != 0 {
		fail("journal exported %d datagrams / %d records (%d send errors), sink received %d / %d",
			datagrams, records, sendErrors, sink.Datagrams, sink.Records)
	}
}
