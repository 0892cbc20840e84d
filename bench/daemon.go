package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/daemon"
	"repro/internal/scenario"
	"repro/internal/sim"
)

const (
	// daemonWarp is the pacing of the served world: virtual seconds per
	// wall second.
	daemonWarp = 2000
	// daemonBoots is how many times a run boots the daemon; set-up time is
	// their median and the last one serves the load.
	daemonBoots = 5
	// latencyRate is the open-loop rate whose submit latency is the
	// end-to-end latency metric.
	latencyRate = 2000
	// p99Limit is the latency limit a rate must meet for rate_ok_max.
	p99Limit = 25 * time.Millisecond
	// clientConns bounds the load generator's connections, and is the
	// closed loop's client count.
	clientConns = 2
	// submitBody is the one job every request submits: 60 virtual seconds
	// of compute through the broker.
	submitBody = `{"tenant":"bench","name":"probe","runtimeSeconds":60}`
)

// openLoopRates are the fixed request rates of the open-loop phases.
var openLoopRates = []int{1000, 2000, 4000, 8000}

// served is one booted daemon and the world it serves.
type served struct {
	d     *daemon.Daemon
	w     *scenario.World
	base  string
	start time.Time // when the pacing loop started
}

// bootDaemon compiles the world, boots moteurd on it on a loopback port
// the kernel picks, and waits until /healthz answers.
func bootDaemon(data []byte, file string, seed uint64, rec *recorder, client *http.Client) (*served, error) {
	var (
		w   *scenario.World
		d   *daemon.Daemon
		err error
	)
	within(rec, spanCompile, func() {
		var s *scenario.Spec
		if s, err = scenario.Parse(data, file); err != nil {
			return
		}
		s.Seed = seed
		w, err = scenario.Compile(sim.NewEngine(), s)
	})
	if err != nil {
		return nil, err
	}
	if rec != nil {
		traceTenants(w.Tenants, rec)
	}
	// daemon.New starts the world's campaign.
	within(rec, spanStart, func() {
		d, err = daemon.New(daemon.Config{World: w, Warp: daemonWarp, Addr: "127.0.0.1:0"})
	})
	if err != nil {
		return nil, err
	}
	sv := &served{d: d, w: w, start: time.Now()}
	if err := d.Start(); err != nil {
		return nil, err
	}
	sv.base = "http://" + d.Addr()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(sv.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sv, nil
			}
		}
		if time.Now().After(deadline) {
			d.Stop()
			return nil, fmt.Errorf("daemon did not become healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// submit sends one /submit request and reports whether it was accepted.
func submit(client *http.Client, base string) bool {
	resp, err := client.Post(base+"/submit", "application/json", strings.NewReader(submitBody))
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// phase is the outcome of one load phase.
type phase struct {
	latMs        []float64 // per accepted request: due → answered
	lateMs       []float64 // per sent request: due → sent
	sent, failed int
	dropped      int // due requests the generator could not send in time
}

// openLoop sends requests at a fixed rate for dur, whatever the answers'
// pace, over at most clientConns connections. Each request is timed
// from the instant it was due, so a stall also counts against the
// requests queued behind it; requests still unsent when the phase ends
// are dropped and counted.
func openLoop(client *http.Client, base string, rate int, dur time.Duration) phase {
	n := int(float64(rate) * dur.Seconds())
	interval := time.Second / time.Duration(rate)
	due := make(chan time.Time, n) // every due time of the phase fits: the pacer never blocks
	start := time.Now()
	end := start.Add(dur)
	var (
		mu sync.Mutex
		ph phase
		wg sync.WaitGroup
	)
	for i := 0; i < clientConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for at := range due {
				sent := time.Now()
				if sent.After(end) {
					mu.Lock()
					ph.dropped++
					mu.Unlock()
					continue
				}
				ok := submit(client, base)
				done := time.Now()
				mu.Lock()
				ph.sent++
				if ok {
					ph.latMs = append(ph.latMs, float64(done.Sub(at))/1e6)
				} else {
					ph.failed++
				}
				ph.lateMs = append(ph.lateMs, float64(sent.Sub(at))/1e6)
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		at := start.Add(time.Duration(i) * interval)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		due <- at
	}
	close(due)
	wg.Wait()
	return ph
}

// closedLoop runs clientConns clients, each sending its next request as
// soon as the previous one is answered, for dur.
func closedLoop(client *http.Client, base string, dur time.Duration) phase {
	end := time.Now().Add(dur)
	var (
		mu sync.Mutex
		ph phase
		wg sync.WaitGroup
	)
	for i := 0; i < clientConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent, failed := 0, 0
			for time.Now().Before(end) {
				sent++
				if !submit(client, base) {
					failed++
				}
			}
			mu.Lock()
			ph.sent += sent
			ph.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	return ph
}

// scrape reads the daemon's /metrics and returns its unlabelled samples.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// snapshot reads the daemon's /snapshot.
func snapshot(client *http.Client, base string) (*daemon.Snapshot, error) {
	resp, err := client.Get(base + "/snapshot")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/snapshot: %s", resp.Status)
	}
	var snap daemon.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("/snapshot: %w", err)
	}
	return &snap, nil
}

// runDaemonOnline is the daemon-online workload: moteurd serving a busy
// world in process, driven over loopback HTTP by an open-loop rate sweep
// and a closed loop.
func runDaemonOnline(c runConfig, data []byte, file string) (*outcome, error) {
	tr := &http.Transport{Proxy: nil, MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns}
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	defer tr.CloseIdleConnections()

	o := newOutcome()
	var (
		setups []float64
		sv     *served
		rec    *recorder
	)
	for i := 0; i < daemonBoots; i++ {
		if sv != nil {
			sv.d.Stop()
			sv = nil
		}
		runtime.GC()
		if c.trace && i == daemonBoots-1 {
			rec = newRecorder()
		}
		t := time.Now()
		var err error
		if sv, err = bootDaemon(data, file, c.seed, rec, client); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			sv.d.Stop()
		}
	}()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// The budget is split into a warm-up, the closed loop and four
	// open-loop rates; the closed loop gets twice a rate's share, its
	// throughput being the noisier measurement.
	warm := c.budget / 20
	step := (c.budget - warm) / 6
	var scrapes []map[string]float64
	var scrapeMs, lagMs []float64
	scrapeNow := func() error {
		t := time.Now()
		m, err := scrape(client, sv.base)
		if err != nil {
			return err
		}
		scrapeMs = append(scrapeMs, float64(time.Since(t))/1e6)
		// Pacing lag: how far the served clock trails wall time × warp,
		// in wall milliseconds.
		lagMs = append(lagMs, (t.Sub(sv.start).Seconds()*daemonWarp-m["moteur_virtual_seconds"])/daemonWarp*1e3)
		scrapes = append(scrapes, m)
		return nil
	}
	sent, failed := 0, 0
	count := func(ph phase) {
		sent += ph.sent
		failed += ph.failed
	}
	count(openLoop(client, sv.base, openLoopRates[0], warm))
	// The closed loop comes first, while the served heap is smallest: it
	// allocates the most, and each collection marks the whole heap of
	// accepted jobs.
	runtime.GC()
	closed := closedLoop(client, sv.base, 2*step)
	count(closed)
	fmt.Fprintf(c.log, "  closed loop, %d clients: %d sent, %d failed\n", clientConns, closed.sent, closed.failed)
	if err := scrapeNow(); err != nil {
		return nil, err
	}
	phases := make(map[int]phase)
	for _, rate := range openLoopRates {
		// Every phase starts right after a collection. The served heap
		// grows with each accepted job, and a collection landing inside
		// one run's phase but not another's would swing its numbers.
		runtime.GC()
		ph := openLoop(client, sv.base, rate, step)
		count(ph)
		phases[rate] = ph
		tail := tailPercentile(len(ph.latMs))
		fmt.Fprintf(c.log, "  open loop %5d req/s: %6d sent, %5d dropped, p50 %.3f ms, p%g %.3f ms\n",
			rate, ph.sent, ph.dropped, percentile(ph.latMs, 50), tail, percentile(ph.latMs, tail))
		if err := scrapeNow(); err != nil {
			return nil, err
		}
	}
	final := scrapes[len(scrapes)-1]
	o.attempted = sent + len(scrapes)
	var snap *daemon.Snapshot
	if c.trace {
		var err error
		if snap, err = snapshot(client, sv.base); err != nil {
			return nil, err
		}
		o.attempted++
	}
	wall := time.Since(sv.start)
	sv.d.Stop()
	stopped = true
	gc := gcSince(ms)

	o.failed = failed
	accepted := float64(sent - failed)
	o.check(final["moteur_submissions_total"] == accepted,
		"daemon counted %v submissions, the load generator had %v accepted", final["moteur_submissions_total"], accepted)
	if final["moteur_campaign_tenants_remaining"] == 0 {
		// The world ran dry before the load ended: the engine load is no
		// longer the intended background traffic.
		fmt.Fprintln(c.log, "bench: daemon-online: every boot-campaign tenant finished before the last phase ended")
	}
	o.endToEnd["setup_s"] = median(setups)
	o.endToEnd["ops_per_s"] = float64(closed.sent-closed.failed) / (2 * step).Seconds()
	o.endToEnd["latency_ms"] = median(phases[latencyRate].latMs)
	o.endToEnd["heap_mb"] = liveHeapMB()
	runtime.KeepAlive(sv)
	if !c.trace {
		return o, nil
	}

	l := o.perLayer
	okMax := 0
	loadSent := 0
	for _, rate := range openLoopRates {
		ph := phases[rate]
		l[fmt.Sprintf("daemon.rate%d.p99_ms", rate)] = percentile(ph.latMs, 99)
		// A failed or dropped request misses the limit.
		judged := append([]float64(nil), ph.latMs...)
		for i := 0; i < ph.failed+ph.dropped; i++ {
			judged = append(judged, math.Inf(1))
		}
		if percentile(judged, 99) <= float64(p99Limit)/1e6 {
			okMax = rate
		}
		loadSent += ph.sent
	}
	l["daemon.rate_ok_max"] = float64(okMax)
	l["daemon.submit_p90_ms"] = percentile(phases[latencyRate].latMs, 90)
	l["daemon.pacing_lag_ms"] = median(lagMs)
	l["daemon.scrape_ms"] = median(scrapeMs)
	l["loadgen.sent"] = float64(loadSent)
	l["loadgen.late_p99_ms"] = percentile(phases[latencyRate].lateMs, 99)

	w := sv.w
	// The campaign's Report walks every tenant's records, seconds of wall
	// time on this world; the snapshot's tenant progress gives the spans.
	var tenants []time.Duration
	for _, t := range snap.Campaign.Tenants {
		if t.Finished && t.Error == "" {
			tenants = append(tenants, time.Duration((t.FinishSeconds-t.ArrivalSeconds)*float64(time.Second)))
		}
		l["sim.makespan_s"] = max(l["sim.makespan_s"], t.FinishSeconds)
	}
	l["sim.p95_tenant_s"] = p95Seconds(tenants)
	l["scenario.compile_s"] = rec.total(spanCompile).total.Seconds()
	zeroLayers(l, "bronze.")
	l["campaign.start_s"] = rec.total(spanStart).total.Seconds()
	l["campaign.report_s"] = 0
	l["sim.events"] = float64(w.Eng.Fired())
	l["sim.events_per_s"] = float64(w.Eng.Fired()) / wall.Seconds()
	peak := 0.0
	for _, m := range scrapes {
		peak = max(peak, m["moteur_events_pending"])
	}
	l["sim.pending_peak"] = peak
	reportSpans(o, rec)
	infraCounters(l, gridsOf(w.Fed), w.Fed.Catalog(), w.Fed)
	l["federation.pick_ns"] = pickNs(w.Fed.Policy(), federationViews(w.Fed))
	l["grid.catalog_plan_ns"] = planNs(w.Fed.Catalog(), gridsOf(w.Fed))
	engineMicro(o)
	reportGC(o, []gcDelta{gc}, int(l["grid.attempts"]))
	// One daemon serves the load, so there is no untraced twin to
	// compare against.
	l["trace.overhead_pct"] = 0
	if c.traceDir != "" {
		if err := rec.writeChrome(c.traceDir + ".trace.json"); err != nil {
			return nil, err
		}
	}
	return o, nil
}
