package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"intellinoc/internal/experiments"
	"intellinoc/internal/harness"
	"intellinoc/internal/service"
	"intellinoc/internal/telemetry"
)

// daemonSize sizes the daemon-replay workload: which quick-suite specs
// are primed at set-up (the warm set client B replays as cache hits),
// which client A submits cold, one per submission, in every pass, and
// how many replays client B makes in a pass.
type daemonSize struct {
	Opts experiments.SuiteOptions
	Warm []string
	Cold []string
	// Hits is client B's replays per pass. A fixed count keeps every
	// pass the same work: the service keeps each submission for its
	// lifetime, so replaying for as long as client A runs would tie the
	// heap to hit throughput.
	Hits int
	// Golden checks every record against testdata/golden/quick.digests.
	Golden bool
}

func daemonFull(seed int64) daemonSize {
	return daemonSize{
		Opts: quickOptions(seed),
		Warm: []string{"fig17a/base/ferret", "fig17a/base/swaptions", "fig17b/1e-7/base/ferret"},
		// The canneal IntelliNoC run pre-trains the comparison policy
		// inside the daemon; the fig17a runs each pre-train a small one.
		Cold: []string{
			"comparison/canneal/SECDED", "comparison/canneal/EB", "comparison/canneal/CP",
			"comparison/canneal/CPD", "comparison/canneal/IntelliNoC",
			"fig17a/200cyc/ferret", "fig17a/200cyc/swaptions",
		},
		// At 0.1-0.2 ms a hit, client B finishes within about half of
		// client A's slice, so every hit runs beside cold work.
		Hits:   4000,
		Golden: seed == goldenSeed,
	}
}

// planSpecs indexes the plan's run specs by label.
func planSpecs(opts experiments.SuiteOptions, names []string) ([]experiments.LabeledSpec, error) {
	s, err := experiments.NewSuite(opts)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]experiments.LabeledSpec)
	for _, ex := range s.Experiments {
		for _, ls := range ex.Specs {
			byName[ls.Name] = ls
		}
	}
	out := make([]experiments.LabeledSpec, len(names))
	for i, n := range names {
		ls, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("daemon-replay: no spec %q in the plan", n)
		}
		out[i] = ls
	}
	return out, nil
}

// daemon is one in-process service.Server on a loopback listener.
type daemon struct {
	srv  *service.Server
	hs   *http.Server
	dir  string
	base string
	hc   *http.Client
	done chan error
}

func startDaemon(outDir string) (*daemon, error) {
	dir, err := os.MkdirTemp(outDir, "daemon-")
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{StorePath: dir + "/store.jsonl", Workers: 1})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		srv: srv, dir: dir,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: time.Minute},
		done: make(chan error, 1),
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener and the server down and removes the store.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Close the clients' idle connections first: Shutdown waits up to 5 s
	// for a connection the transport dialled but never sent a request on.
	d.hc.CloseIdleConnections()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// exchange is one submission and its stream, timed from the client.
type exchange struct {
	Start     time.Time
	Submitted time.Time // POST answered
	First     time.Time // first stream line read
	End       time.Time // stream closed
	Status    int       // first non-2xx status, else the stream's
	Body      []byte    // the whole stream
	Rec       harness.Record
}

// submitOne POSTs one spec, then reads its result stream to the end.
func (d *daemon) submitOne(client string, ls experiments.LabeledSpec) (exchange, error) {
	x := exchange{Start: time.Now()}
	body, err := json.Marshal(map[string]any{"jobs": []any{map[string]any{"name": ls.Name, "spec": ls.Spec}}})
	if err != nil {
		return x, err
	}
	req, err := http.NewRequest(http.MethodPost, d.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return x, err
	}
	req.Header.Set("X-IntelliNoC-Client", client)
	resp, err := d.hc.Do(req)
	if err != nil {
		return x, err
	}
	var ack struct {
		Stream string `json:"stream"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	x.Submitted, x.Status = time.Now(), resp.StatusCode
	if resp.StatusCode != http.StatusAccepted {
		return x, nil
	}
	if err != nil {
		return x, fmt.Errorf("decoding submit answer: %w", err)
	}
	resp, err = d.hc.Get(d.base + ack.Stream)
	if err != nil {
		return x, err
	}
	defer resp.Body.Close()
	x.Status = resp.StatusCode
	r := bufio.NewReader(resp.Body)
	first, err := r.ReadBytes('\n')
	x.First = time.Now()
	if err != nil {
		return x, fmt.Errorf("reading stream: %w", err)
	}
	rest, err := io.ReadAll(r)
	x.End = time.Now()
	if err != nil {
		return x, fmt.Errorf("reading stream: %w", err)
	}
	x.Body = append(first, rest...)
	if err := json.Unmarshal(first, &x.Rec); err != nil {
		return x, fmt.Errorf("decoding stream record: %w", err)
	}
	if x.Rec.Digest != ls.Spec.Digest() || len(x.Rec.Payload) == 0 {
		return x, fmt.Errorf("stream for %s returned %q (digest %s)", ls.Name, first, x.Rec.Digest)
	}
	return x, nil
}

// counters reads the service's executed and cache-hit totals from its
// Prometheus surface.
func (d *daemon) counters() (executed, hits float64, err error) {
	resp, err := d.hc.Get(d.base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	want := map[string]*float64{
		"intellinocd_jobs_executed_total": &executed,
		"intellinocd_cache_hits_total":    &hits,
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && want[f[0]] != nil {
			if *want[f[0]], err = strconv.ParseFloat(f[1], 64); err != nil {
				return 0, 0, err
			}
		}
	}
	return executed, hits, sc.Err()
}

// daemonPass is one fresh daemon: prime, then the cold slice beside
// the hit replays.
type daemonPass struct {
	setup, cold time.Duration // priming; client A's whole slice
	coldX       []exchange
	hitMS       []float64
	hitStreamMS []float64
	submitMS    []float64
	hits        int
	cycles      float64
}

func runDaemonPass(warm, cold []experiments.LabeledSpec, hits int, outDir string, seed int64,
	golden map[string]string, tr *tracer, out *outcome) (*daemonPass, error) {
	p := &daemonPass{}
	t0 := time.Now()
	d, err := startDaemon(outDir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := d.stop(); err != nil {
			out.fail("daemon-replay: shutdown: %v", err)
		}
	}()
	checkRec := func(x exchange) {
		if golden == nil {
			return
		}
		for _, b := range checkGolden(map[string]string{x.Rec.Digest: harness.PayloadHash(x.Rec)}, golden, false) {
			out.fail("daemon-replay: %s: %s", x.Rec.Name, b)
		}
	}
	primed := make([][]byte, len(warm))
	for i, ls := range warm {
		x, err := d.submitOne("prime", ls)
		out.Ops.http(x.Status)
		if err != nil || x.Status/100 != 2 {
			out.fail("daemon-replay: priming %s: status %d: %v", ls.Name, x.Status, err)
			return nil, nil
		}
		checkRec(x)
		primed[i] = x.Body
	}
	p.setup = time.Since(t0)
	tr.span(tidPhase, "setup: service.New + prime warm set", "service", t0, t0.Add(p.setup), nil)

	// Client B makes its replays of warm-set submissions, closed loop,
	// beside client A's cold slice.
	var wg sync.WaitGroup
	var bOps opCount
	var bProblems []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for range hits {
			i := rng.Intn(len(warm))
			x, err := d.submitOne("B", warm[i])
			bOps.http(x.Status)
			if err != nil || x.Status/100 != 2 {
				bProblems = append(bProblems, fmt.Sprintf("hit %s: status %d: %v", warm[i].Name, x.Status, err))
				continue
			}
			if !bytes.Equal(x.Body, primed[i]) {
				bProblems = append(bProblems, fmt.Sprintf("hit %s: stream differs from the cold response", warm[i].Name))
			}
			p.hits++
			p.hitMS = append(p.hitMS, float64(x.End.Sub(x.Start).Nanoseconds())/1e6)
			p.submitMS = append(p.submitMS, float64(x.Submitted.Sub(x.Start).Nanoseconds())/1e6)
			p.hitStreamMS = append(p.hitStreamMS, float64(x.End.Sub(x.Submitted).Nanoseconds())/1e6)
			tr.span(tidClientB, "hit "+warm[i].Name, "service", x.Start, x.End, nil)
		}
	}()

	start := time.Now()
	var aErr error
	var coldSubmitMS []float64 // p.submitMS belongs to client B until it stops
	for _, ls := range cold {
		x, err := d.submitOne("A", ls)
		out.Ops.http(x.Status)
		if err != nil || x.Status/100 != 2 {
			out.fail("daemon-replay: cold %s: status %d: %v", ls.Name, x.Status, err)
			aErr = err
			break
		}
		checkRec(x)
		c, err := simCycles(x.Rec)
		if err != nil {
			aErr = err
			break
		}
		p.cycles += c
		p.coldX = append(p.coldX, x)
		coldSubmitMS = append(coldSubmitMS, float64(x.Submitted.Sub(x.Start).Nanoseconds())/1e6)
		tr.span(tidClientA, "cold "+ls.Name, "service", x.Start, x.End, map[string]any{"wall_ms": x.Rec.WallMS})
	}
	p.cold = time.Since(start)
	wg.Wait()
	p.submitMS = append(p.submitMS, coldSubmitMS...)
	out.Ops.merge(bOps)
	for _, b := range bProblems {
		out.fail("daemon-replay: %s", b)
	}
	if aErr != nil || len(out.Problems) > 0 {
		return nil, nil
	}
	if tr != nil {
		spans := make([]telemetry.Span, len(p.coldX))
		for i, x := range p.coldX {
			spans[i] = tr.jobSpan(x.Rec.Name, x.First, x.Rec.WallMS, map[string]any{"digest": x.Rec.Digest})
		}
		tr.jobs("core", spans)
	}

	executed, served, err := d.counters()
	if err != nil {
		return nil, fmt.Errorf("daemon-replay: reading /metrics: %w", err)
	}
	if int(executed) != len(warm)+len(cold) || int(served) != hits || p.hits != hits {
		out.fail("daemon-replay: service counted %v executed and %v cache hits, clients expected %d and %d (%d replays)",
			executed, served, len(warm)+len(cold), p.hits, hits)
	}
	return p, nil
}

func runDaemon(sz daemonSize, root, outDir string, budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome()
	warm, err := planSpecs(sz.Opts, sz.Warm)
	if err != nil {
		return nil, err
	}
	cold, err := planSpecs(sz.Opts, sz.Cold)
	if err != nil {
		return nil, err
	}
	var golden map[string]string
	if sz.Golden {
		if golden, err = readGolden(root); err != nil {
			return nil, err
		}
	}

	heap := startHeapSampler()
	defer heap.peakMB()
	start := time.Now()
	var passes []*daemonPass
	var last time.Duration
	var firstID string
	for another(start, budget, last, len(passes)) {
		t0 := time.Now()
		p, err := runDaemonPass(warm, cold, sz.Hits, outDir, sz.Opts.Sim.Seed+int64(len(passes)), golden, tr, out)
		if err != nil {
			return nil, err
		}
		if p == nil {
			break // mismatches recorded in out
		}
		last = time.Since(t0)
		got := make(map[string]string)
		for _, x := range p.coldX {
			got[x.Rec.Digest] = harness.PayloadHash(x.Rec)
		}
		if id := resultsID(got); firstID == "" {
			firstID = id
		} else if id != firstID {
			out.fail("daemon-replay: pass %d cold results differ from pass 0", len(passes))
		}
		passes = append(passes, p)
	}
	peak := heap.peakMB()
	if len(out.Problems) > 0 {
		return out, nil
	}
	out.IDs["daemon.cold_results"] = firstID

	var setupS, coldS, cps, firstMS, overheadMS, runMS, hitMS, submitMS, hitStreamMS []float64
	for _, p := range passes {
		setupS = append(setupS, p.setup.Seconds())
		coldS = append(coldS, p.cold.Seconds())
		cps = append(cps, p.cycles/p.cold.Seconds())
		for _, x := range p.coldX {
			f := float64(x.First.Sub(x.Start).Nanoseconds()) / 1e6
			firstMS = append(firstMS, f)
			overheadMS = append(overheadMS, f-x.Rec.WallMS)
			runMS = append(runMS, x.Rec.WallMS)
		}
		hitMS = append(hitMS, p.hitMS...)
		submitMS = append(submitMS, p.submitMS...)
		hitStreamMS = append(hitStreamMS, p.hitStreamMS...)
	}
	n := len(passes)
	out.set("setup_s", median(setupS), fmt.Sprintf("median of %d set-ups (service.New + %d warm specs primed)", n, len(warm)))
	out.set("peak_heap_mb", peak, "peak live heap, all passes")
	out.set("cycles_per_s", median(cps), fmt.Sprintf("simulated cycles of the cold slice per client-A second, median of %d passes", n))
	out.set("wall_s", median(coldS), fmt.Sprintf("client A's %d cold submissions, median of %d passes", len(cold), n))
	out.set("first_record_ms", median(firstMS), fmt.Sprintf("cold submit to first stream record, %d samples", len(firstMS)))
	out.set("op_ms_p50", median(hitMS), "cache-hit submit + full stream (client B)")
	out.setTail("op_ms_tail", tailOf(hitMS))
	if tr == nil {
		return out, nil
	}
	out.set("core.run_ms_p50", median(runMS), "cold jobs' wall_ms")
	out.setTail("core.run_ms_tail", tailOf(runMS))
	out.set("core.self_s", sum(runMS)/1e3, "sum of cold jobs' wall_ms")
	out.set("harness.utilization", sum(runMS)/1e3/sum(coldS), "pool worker busy share while client A ran")
	out.set("harness.attempts_per_job", attemptsPerJob(passes), "")
	out.set("service.submit_ms_p50", median(submitMS), fmt.Sprintf("%d POSTs", len(submitMS)))
	out.set("service.hit_stream_ms_p50", median(hitStreamMS), "")
	out.set("service.overhead_ms_p50", median(overheadMS), "first-record latency minus the record's wall_ms")
	out.set("service.executed", float64(len(warm)+len(cold)), "per pass, checked against /metrics")
	out.set("service.cache_hits", float64(sz.Hits), "per pass, checked against /metrics")
	out.set("service.self_s", (sum(firstMS)-sum(runMS)+sum(hitMS))/1e3, "cold overhead + hit requests")
	return out, nil
}

func attemptsPerJob(passes []*daemonPass) float64 {
	n, a := 0, 0
	for _, p := range passes {
		for _, x := range p.coldX {
			n++
			a += x.Rec.Attempts
		}
	}
	return float64(a) / float64(n)
}
