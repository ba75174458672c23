package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"zmail/internal/bank"
	"zmail/internal/cluster"
	"zmail/internal/isp"
	"zmail/internal/load"
	"zmail/internal/mempool"
	"zmail/internal/metrics"
	"zmail/internal/money"
)

// fedSpec is one real-TCP federation workload.
type fedSpec struct {
	name        string
	usersPerISP int
	balance     money.EPenny // each user's opening e-penny balance
	traffic     mix          // domains and users are filled in after boot
	auditLoop   bool         // trigger audits while mail flows
	setups      int          // boots per run for the setup_s median
}

// Both mail workloads boot the same federation: 2 ISPs in 2 regions,
// so every remote message crosses regions and the root verifies its
// pair, with the production switches on (admission queue, coalesced
// bank orders, group settlement, WAL, admin telemetry) and the
// cluster's default freeze.
var (
	relayMix = fedSpec{
		name:        "relay_mix",
		usersPerISP: 64,
		balance:     1_000_000,
		traffic:     mix{zipfS: 1.2, remoteFrac: 0.5, listFrac: 0.1, listSize: 4},
		auditLoop:   true,
		// A boot takes a few ms of CPU, so many keep one slow boot from
		// moving the median.
		setups: 25,
	}
	localSubmit = fedSpec{
		name:        "local_submit",
		usersPerISP: 50_000,
		balance:     1_000,
		traffic:     mix{zipfS: 0, remoteFrac: 0, listFrac: 0, listSize: 1},
		setups:      9,
	}
)

// Fixed measurement settings, shared by both mail workloads.
const (
	fedISPs = 2
	// fixedRate and fixedMsgs define the fixed-rate phase that yields
	// accept_p50/p99_ms, cpu_us_per_msg and the WAL that recovery_s
	// replays. The work is a message count, not a duration: were it
	// "as many as fit in N seconds", a faster build would commit more
	// messages, write a longer WAL and look slower to recover, and its
	// per-message CPU would be averaged over a different amount of
	// background work.
	fixedRate = 2000.0
	fixedMsgs = 30000
	// sloMs is the accept-latency SLO the knee is judged against:
	// p99 from due time, and generator lateness p99, both within it.
	sloMs = 150.0
	// Ladder rungs are ladderBase × 2^(k/ladderJump) msg/s, so the
	// fixed rate is exactly rung 36 and each upward probe exactly
	// doubles the rate. A step offers its rung for stepDur; a step whose
	// sends start more than giveUp late has already failed and stops
	// offering.
	ladderBase = 250.0
	ladderJump = 12 // rungs per upward probe (×2)
	stepDur    = 1500 * time.Millisecond
	giveUp     = 500 * time.Millisecond
	// restarts repeats recovery so each run reports a median.
	restarts = 7
	// finalAudits are the rounds run at quiescence at the end of a run.
	finalAudits = 3
	// auditEvery is the minimum spacing of audit rounds in relay_mix;
	// a round starts once the previous one completed and this much time
	// has passed since it started.
	auditEvery = time.Second
	quiesceMax = 20 * time.Second
)

func rung(k int) float64 { return ladderBase * math.Exp2(float64(k)/ladderJump) }

// fed is one booted federation under test.
type fed struct {
	c   *cluster.Cluster
	mix mix
	dir string

	delivered0 int64 // Σ Delivered at boot
	expected   int64 // recipients accepted so far
	dropped    int64 // QueueDropped over engines already replaced by restarts
}

func clusterConfig(spec fedSpec, walDir string) cluster.Config {
	pool := money.EPenny(spec.usersPerISP)*spec.balance + 10_000
	return cluster.Config{
		ISPs:           fedISPs,
		Regions:        2,
		UsersPerISP:    spec.usersPerISP,
		InitialBalance: spec.balance,
		InitialAccount: 1000,
		// The §5 daily cap is a policy limit, not a capacity; it is set
		// out of reach so no send in the benchmark is refused by it.
		DailyLimit:   1 << 40,
		InitialAvail: pool,
		// The pool-maintenance tick runs during registration; a band
		// reaching the opening pool keeps it from selling the users'
		// opening balances to the bank before they are registered.
		MaxAvail:    pool,
		BatchOrders: true,
		Queue:       true,
		GroupSettle: true,
		WALDir:      walDir,
		Metrics:     true,
	}
}

// bootFed boots one federation, adding the cost of cluster.New to
// setup.
func bootFed(spec fedSpec, dir string, setup *cost) (*fed, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var c *cluster.Cluster
	err := setup.time(func() (err error) {
		c, err = cluster.New(clusterConfig(spec, dir))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	f := &fed{c: c, mix: spec.traffic, dir: dir}
	f.mix.domains = c.Domains
	for _, d := range c.ISPs() {
		f.mix.users = append(f.mix.users, d.Users)
	}
	f.delivered0 = f.delivered()
	return f, nil
}

func (f *fed) close() {
	_ = f.c.Close()
	_ = os.RemoveAll(f.dir)
}

func (f *fed) delivered() int64 {
	var n int64
	for _, d := range f.c.ISPs() {
		n += d.Delivered()
	}
	return n
}

func (f *fed) queueDropped() int64 {
	n := f.dropped
	for _, d := range f.c.ISPs() {
		n += d.Engine().Stats().QueueDropped
	}
	return n
}

func (f *fed) dial() dialer {
	return smtpDialer(func(i int) string { return f.c.ISP(i).SMTPAddr() })
}

// quiesce waits until every admitted message has committed and every
// accepted recipient has been delivered, or the deadline passes.
func (f *fed) quiesce() bool {
	for _, d := range f.c.ISPs() {
		d.Engine().FlushQueue()
	}
	want := f.delivered0 + f.expected
	return cluster.WaitFor(quiesceMax, func() bool { return f.delivered() >= want })
}

func connsPerISP() int {
	n := hostStamp().NumCPU / fedISPs
	if n < 1 {
		n = 1
	}
	return n
}

// offer runs arrivals open loop and books their recipients for the
// delivery check.
func (f *fed) offer(arrivals []arrival, sp *spans, shed time.Duration) genResult {
	res := runOpenLoop(arrivals, fedISPs, connsPerISP(), f.dial(), sp, shed)
	f.expected += res.rcpts
	return res
}

// auditor triggers §4.4 rounds while mail flows: a round starts once
// the previous one has completed and auditEvery has passed since it
// started. It records each round's wall time, TriggerAudit →
// AuditComplete, and counts the rounds that failed to start or did not
// complete within quiesceMax.
type auditor struct {
	c      *cluster.Cluster
	stop   chan struct{}
	done   chan struct{}
	mu     sync.Mutex
	rounds []float64 // ms
	failed int
}

func (a *auditor) start() {
	a.stop = make(chan struct{})
	a.done = make(chan struct{})
	go a.loop()
}

// halt stops triggering, waits for the round in progress to complete
// and for the loop to exit.
func (a *auditor) halt() {
	close(a.stop)
	<-a.done
}

func (a *auditor) loop() {
	defer close(a.done)
	var last, began time.Time
	inRound := false
	for {
		if inRound && a.c.AuditComplete() {
			a.mu.Lock()
			a.rounds = append(a.rounds, ms(time.Since(began)))
			a.mu.Unlock()
			inRound = false
		} else if inRound && time.Since(began) > quiesceMax {
			a.mu.Lock()
			a.failed++
			a.mu.Unlock()
			inRound = false
		}
		select {
		case <-a.stop:
			if !inRound {
				return
			}
		default:
			if !inRound && time.Since(last) >= auditEvery {
				began = time.Now()
				last = began
				if err := a.c.TriggerAudit(); err != nil {
					a.mu.Lock()
					a.failed++
					a.mu.Unlock()
				} else {
					inRound = true
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// result returns the completed rounds' wall times and the number of
// failed rounds.
func (a *auditor) result() ([]float64, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]float64(nil), a.rounds...), a.failed
}

// ledger is one ISP's full ledger, compared across a restart.
type ledger struct {
	Users  []isp.UserInfo
	Avail  money.EPenny
	Credit []int64
	Total  int64
}

func ledgerOf(e *isp.Engine) ledger {
	return ledger{Users: e.Users(), Avail: e.Avail(), Credit: e.Credit(), Total: e.TotalEPennies()}
}

// fedSnap is every counter the per-layer table differences.
type fedSnap struct {
	at       time.Time
	cpu      time.Duration
	gc       time.Duration
	opens    int64
	walBytes int64
	stats    isp.Stats
	cont     isp.ContentionStats
	queue    mempool.Stats
	hists    map[string]*load.Histogram
	bank     bank.Stats
	root     bank.RootStats
}

func (f *fed) snap() fedSnap {
	s := fedSnap{
		at:       time.Now(),
		cpu:      cpuTime(),
		gc:       gcPauseTotal(),
		opens:    tcpActiveOpens(),
		walBytes: dirBytes(f.dir),
		hists:    map[string]*load.Histogram{},
	}
	reg := metrics.NewRegistry()
	for _, d := range f.c.ISPs() {
		e := d.Engine()
		st := e.Stats()
		s.stats.SentPaid += st.SentPaid
		s.stats.ReceivedPaid += st.ReceivedPaid
		s.stats.Buffered += st.Buffered
		s.stats.SnapshotRounds += st.SnapshotRounds
		s.stats.QueueDropped += st.QueueDropped
		s.stats.Submitted += st.Submitted
		c := e.Contention()
		s.cont.Contended += c.Contended
		s.cont.LockWait += c.LockWait
		for _, h := range c.StripeHits {
			s.cont.StripeHits = append(s.cont.StripeHits, h)
		}
		q := e.QueueStats()
		s.queue.Rejected += q.Rejected
		s.queue.Committed += q.Committed
		s.queue.Batches += q.Batches
		e.Collect(reg)
		for _, name := range engineHists {
			s.hists[name] = addHist(s.hists[name], histOf(reg.Latency(name, "isp", d.Domain)))
		}
	}
	for _, b := range f.c.Banks() {
		st := b.Bank.Stats()
		s.bank.BatchOrders += st.BatchOrders
		s.bank.BuysAccepted += st.BuysAccepted
		s.bank.BuysDenied += st.BuysDenied
		s.bank.Sells += st.Sells
		s.bank.Rounds += st.Rounds
		s.bank.ControlMsgs += st.ControlMsgs
		s.bank.SettlementTransfers += st.SettlementTransfers
	}
	if r := f.c.Root(); r != nil {
		s.root = r.Stats()
	}
	return s
}

// engineHists are the engine latency histograms /metrics serves.
var engineHists = []string{
	"zmail_isp_submit_seconds",
	"zmail_isp_receive_seconds",
	"zmail_isp_bank_rtt_seconds",
	"zmail_isp_stripe_wait_seconds",
}

// histOf reads an engine latency histogram in the shape a /metrics
// scrape assembles, so its quantiles follow the same upper-bound rule
// (load.Histogram.Quantile).
func histOf(h *metrics.LatencyHist) *load.Histogram {
	return &load.Histogram{Bounds: metrics.LatencyBounds(), Counts: h.Cumulative(), Count: h.Count(), Sum: h.Sum().Seconds()}
}

// addHist merges two histograms; a nil h is empty.
func addHist(h, o *load.Histogram) *load.Histogram {
	if h == nil {
		return o
	}
	out := &load.Histogram{Bounds: h.Bounds, Counts: make([]uint64, len(h.Counts)), Count: h.Count + o.Count, Sum: h.Sum + o.Sum}
	for i := range h.Counts {
		out.Counts[i] = h.Counts[i] + o.Counts[i]
	}
	return out
}

// subHist is h − o, the observations made between two snapshots.
func subHist(h, o *load.Histogram) *load.Histogram {
	out := &load.Histogram{Bounds: h.Bounds, Counts: make([]uint64, len(h.Counts)), Count: h.Count - o.Count, Sum: h.Sum - o.Sum}
	for i := range h.Counts {
		out.Counts[i] = h.Counts[i] - o.Counts[i]
	}
	return out
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// poller samples layer state every few milliseconds during a traced
// phase: relay messages in flight, admission-queue depth, freezes and
// the heap.
type poller struct {
	f        *fed
	base     isp.Stats
	stop     chan struct{}
	done     chan struct{}
	inflight metrics.Histogram
	depth    metrics.Histogram
	frozen   metrics.Histogram
	heapPeak uint64
}

func (f *fed) startPoller(base isp.Stats) *poller {
	p := &poller{f: f, base: base, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
			var sent, recv int64
			depth, frozen := 0, 0
			for _, d := range f.c.ISPs() {
				e := d.Engine()
				st := e.Stats()
				sent += st.SentPaid
				recv += st.ReceivedPaid
				depth += e.QueueDepth()
				if e.Frozen() {
					frozen++
				}
			}
			p.inflight.Observe(float64((sent - p.base.SentPaid) - (recv - p.base.ReceivedPaid)))
			p.depth.Observe(float64(depth))
			p.frozen.Observe(float64(frozen) / float64(fedISPs))
			if h := heapInUse(); h > p.heapPeak {
				p.heapPeak = h
			}
		}
	}()
	return p
}

func (p *poller) halt() {
	close(p.stop)
	<-p.done
}

// runFederation runs one mail workload: set-up, the fixed-rate phase,
// the restart, the knee ladder, then the end-of-run checks.
func runFederation(spec fedSpec, cfg runConfig, rec *record) error {
	// Sockets a previous run left in TIME_WAIT make the kernel's port
	// search, and so every boot, dial and listen, slower for a minute.
	rec.note("%d TCP sockets in TIME_WAIT at start", tcpTimeWait())
	heap0 := heapAfterGC()
	n := spec.setups
	if cfg.trace {
		n = 1 // traced runs report no set-up time
	}
	var setup cost
	var f *fed
	for i := 0; i < n; i++ {
		g, err := bootFed(spec, filepath.Join(cfg.workDir, fmt.Sprintf("fed%d", i)), &setup)
		if err != nil {
			return err
		}
		if i < n-1 {
			g.close()
		} else {
			f = g
		}
	}
	defer f.close()
	heapPerUser := float64(heapAfterGC()-heap0) / float64(fedISPs*spec.usersPerISP)

	var aud *auditor
	if spec.auditLoop {
		aud = &auditor{c: f.c}
		aud.start()
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	fixedPlan := func(tag string) []arrival {
		return f.mix.schedule(rand.New(rand.NewSource(cfg.seed)), fixedRate, fixedMsgs, tag)
	}

	// Fixed-rate phase, untraced: the end-to-end figures.
	var attempted, failed int64
	plan := fixedPlan("fixed")
	runtime.GC()
	base := f.snap()
	fixed := f.offer(plan, nil, 0)
	quiet := f.quiesce()
	end := f.snap()
	attempted += int64(fixed.offered)
	failed += int64(fixed.failed)
	if !quiet {
		rec.note("fixed phase did not quiesce within %v", quiesceMax)
	}
	cpuPerMsg := float64(end.cpu-base.cpu) / float64(time.Microsecond) / float64(max(fixed.accepted, 1))
	p50, p99 := quantile(fixed.latencyMs, 0.5), quantile(fixed.latencyMs, 0.99)
	rec.Samples["accept"] = len(fixed.latencyMs)

	if cfg.trace {
		// The traced repeat of the same schedule: per-layer counters,
		// pollers and spans, and the tracing overhead against the
		// untraced phase above.
		sp := newSpans()
		plan := fixedPlan("traced")
		tBase := f.snap()
		pl := f.startPoller(tBase.stats)
		traced := f.offer(plan, sp, 0)
		pl.halt()
		quietT := f.quiesce()
		tEnd := f.snap()
		attempted += int64(traced.offered)
		failed += int64(traced.failed)
		if !quietT {
			rec.note("traced phase did not quiesce within %v", quiesceMax)
		}
		f.layers(rec, tBase, tEnd, traced, pl)
		tCPU := float64(tEnd.cpu-tBase.cpu) / float64(time.Microsecond) / float64(max(traced.accepted, 1))
		rec.layer("trace.overhead_cpu_us_per_msg", tCPU-cpuPerMsg)
		rec.layer("trace.overhead_accept_p50_ms", quantile(traced.latencyMs, 0.5)-p50)
		rec.layer("trace.overhead_accept_p99_ms", quantile(traced.latencyMs, 0.99)-p99)
		rec.layer("trace.spans", float64(sp.count()))
		if err := sp.write(filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.spans.json", spec.name, cfg.seed))); err != nil {
			rec.note("write spans: %v", err)
		}
	}

	// Restart ISP 0 from its WAL, which now holds the fixed count of
	// messages. Audits pause so no freeze straddles the restart.
	if aud != nil {
		aud.halt()
	}
	recovery, ledgerOK, detail := f.restartTimes()
	rec.check("restart_ledger_equal", ledgerOK, "%s", detail)
	if cfg.trace {
		f.persistProbes(rec, cfg.workDir)
	}

	// The knee ladder, in what is left of the budget. It runs after
	// the restart so its time-boxed, throughput-dependent volume never
	// reaches the WAL that recovery_s replays.
	var knee float64
	if !cfg.trace {
		if aud != nil {
			aud.start()
		}
		left := cfg.budget - time.Duration(fixedMsgs/fixedRate*float64(time.Second)) - 2*time.Second
		if left < 4*stepDur {
			left = 4 * stepDur
		}
		var steps []stepResult
		knee, steps = f.ladder(rng, left, meetsSLO(fixed))
		for _, s := range steps {
			rec.note("ladder %7.0f msg/s: offered %5d sent %5d shed %5d failed %3d p99 %8.2f ms lateness p99 %8.2f ms pass=%v",
				s.rate, s.res.offered, s.res.accepted, s.res.shed, s.res.failed, s.p99, s.lateP99, s.pass)
			if s.pass {
				attempted += int64(s.res.offered)
				failed += int64(s.res.failed)
			}
		}
		if aud != nil {
			aud.halt()
		}
	}

	// End of run: quiesce, then audit at quiescence so every credit
	// claim is reported, and check the ledgers. A round that fails to
	// start or to complete is a failed operation; one that times out
	// ends the final rounds, since the next could not start.
	quiet = f.quiesce()
	var auditMs []float64
	auditsFailed := 0
	if aud != nil {
		auditMs, auditsFailed = aud.result()
	}
	for i := 0; i < finalAudits; i++ {
		t0 := time.Now()
		if err := f.c.TriggerAudit(); err != nil {
			rec.note("final audit: %v", err)
			auditsFailed++
			continue
		}
		if !cluster.WaitFor(quiesceMax, f.c.AuditComplete) {
			rec.note("final audit did not complete within %v", quiesceMax)
			auditsFailed += finalAudits - i
			break
		}
		auditMs = append(auditMs, ms(time.Since(t0)))
	}
	rec.check("audits_complete", auditsFailed == 0, "%d of %d audit rounds completed",
		len(auditMs), len(auditMs)+auditsFailed)
	attempted += int64(len(auditMs) + auditsFailed)
	failed += int64(auditsFailed)

	delivered := f.delivered() - f.delivered0
	undelivered := f.expected - delivered
	rec.check("delivered_eq_accepted", quiet && delivered == f.expected,
		"delivered %d of %d accepted recipients", delivered, f.expected)
	qd := f.queueDropped()
	rec.check("queue_dropped_zero", qd == 0, "QueueDropped %d", qd)
	failed += max(undelivered, 0) + qd

	flags, pairs := f.flags()
	rec.observe("zero_flagged_pairs", flags == 0, "%d of %d audited pairs flagged", flags, pairs)
	total, initial, outstanding := f.c.TotalEPennies(), f.c.InitialEPennies(), f.c.Outstanding()
	drift := total - initial - outstanding
	rec.check("epenny_conservation", drift == 0, "|TotalEPennies %d − initial %d − Outstanding %d| = %d",
		total, initial, outstanding, abs(drift))

	rec.Attempted, rec.Failed = attempted, failed
	failedFrac := ratio(float64(failed), float64(attempted))
	rec.Samples["audit_rounds"] = len(auditMs)
	rec.Samples["setups"] = len(setup.cpuS)
	rec.Samples["restarts"] = len(recovery.wallS)

	if cfg.trace {
		rec.layer("bank.round_ms", median(auditMs))
		rec.layer("check.failed_frac", failedFrac)
		rec.layer("check.false_flag_frac", ratio(float64(flags), float64(pairs)))
		rec.layer("check.epenny_drift", float64(abs(drift)))
		rec.layer("proc.tcp_timewait_end", float64(tcpTimeWait()))
		fillLayers(rec)
		return nil
	}
	rec.e2e("setup_s", median(setup.cpuS), "s")
	rec.e2e("capacity_msgs_per_s", knee, "msg/s")
	rec.cat("accept_p50_ms", p50, "ms")
	rec.e2e("cpu_us_per_msg", cpuPerMsg, "us")
	rec.e2e("recovery_cpu_s", median(recovery.cpuS), "s")
	rec.e2e("heap_bytes_per_user", heapPerUser, "B")
	rec.e2e("audit_round_ms", median(auditMs), "ms")
	for k, m := range rec.EndToEnd {
		if k != "capacity_msgs_per_s" {
			rec.cat(k, m.Value, m.Unit)
		}
	}
	rec.cat("knee_msgs_per_s", knee, "msg/s")
	rec.cat("accept_p99_ms", p99, "ms")
	rec.cat("setup_wall_s", median(setup.wallS), "s")
	rec.cat("recovery_s", median(recovery.wallS), "s")
	rec.cat("failed_frac", failedFrac, "ratio")
	rec.cat("false_flag_frac", ratio(float64(flags), float64(pairs)), "ratio")
	rec.cat("epenny_drift", float64(abs(drift)), "e-penny")
	return nil
}

// restartTimes restarts ISP 0 from its WAL several times, timing each
// cluster.RestartISP and comparing the recovered ledger with the one
// before. Replay does not compact the log, so every restart replays
// the same records.
func (f *fed) restartTimes() (cost, bool, string) {
	f.quiesce()
	var out cost
	ok := true
	detail := "ledger identical after each restart"
	for i := 0; i < restarts; i++ {
		d := f.c.ISP(0)
		f.dropped += d.Engine().Stats().QueueDropped
		before := ledgerOf(d.Engine())
		// The shutdown (and its fsyncs) is not part of recovery; with
		// the daemon already closed, RestartISP's own Close is a no-op.
		if err := d.Close(); err != nil {
			return out, false, fmt.Sprintf("stop %d: %v", i, err)
		}
		if err := out.time(func() error { return f.c.RestartISP(0) }); err != nil {
			return out, false, fmt.Sprintf("restart %d: %v", i, err)
		}
		if after := ledgerOf(f.c.ISP(0).Engine()); !reflect.DeepEqual(before, after) {
			ok = false
			detail = fmt.Sprintf("restart %d: ledger differs (total %d → %d, avail %d → %d)",
				i, before.Total, after.Total, before.Avail, after.Avail)
		}
	}
	return out, ok, detail
}

// flags counts flagged pairs against audited pairs across the bank
// tree. With one ISP per region every pair is cross-region, checked
// by the root.
func (f *fed) flags() (flagged, audited int64) {
	flagged = int64(len(f.c.Violations()))
	if r := f.c.Root(); r != nil {
		audited += r.Stats().CrossPairs
	}
	// Intra-region pairs: each leaf checks C(k,2) pairs per round.
	perRegion := map[int]int64{}
	for _, d := range f.c.ISPs() {
		perRegion[d.Region]++
	}
	for _, b := range f.c.Banks() {
		k := perRegion[b.Region]
		audited += b.Bank.Stats().Rounds * k * (k - 1) / 2
	}
	return flagged, audited
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// stepResult is one ladder step.
type stepResult struct {
	rate    float64
	res     genResult
	p99     float64
	lateP99 float64
	pass    bool
}

// ladder searches the fixed rung ladder for the knee: the highest rung
// whose step keeps accept p99 and generator lateness p99 within the
// SLO with no failed or shed send. It probes upward ladderJump rungs
// at a time from the fixed-phase rate, then bisects between the last
// passing and first failing rung, until adjacent or out of budget.
func (f *fed) ladder(rng *rand.Rand, budget time.Duration, fixedPass bool) (float64, []stepResult) {
	deadline := time.Now().Add(budget)
	var steps []stepResult
	step := func(k int) bool {
		rate := rung(k)
		plan := f.mix.schedule(rng, rate, offered(rate, stepDur), fmt.Sprintf("step%d", len(steps)))
		res := f.offer(plan, nil, giveUp)
		f.quiesce()
		s := stepResult{rate: rate, res: res, pass: meetsSLO(res)}
		s.p99 = quantile(res.latencyMs, 0.99)
		s.lateP99 = quantile(res.latenessMs, 0.99)
		steps = append(steps, s)
		return s.pass
	}
	// A rung fails only when two steps at it fail: one stall on a
	// shared host must not end the search below the knee.
	probe := func(k int) bool { return step(k) || step(k) }
	// The fixed-rate phase sits on rung k0 and has already been judged.
	k0 := int(math.Round(ladderJump * math.Log2(fixedRate/ladderBase)))
	pass, fail, k := -1, -1, k0+ladderJump
	if !fixedPass {
		fail, k = k0, max(k0-ladderJump, 0)
	} else {
		pass = k0
	}
	for time.Now().Before(deadline) {
		if probe(k) {
			pass = k
			if fail >= 0 {
				break
			}
			k += ladderJump
		} else {
			fail = k
			if pass >= 0 || k == 0 {
				break
			}
			k = max(k-ladderJump, 0)
		}
	}
	for pass >= 0 && fail > pass+1 && time.Now().Before(deadline) {
		mid := (pass + fail) / 2
		if probe(mid) {
			pass = mid
		} else {
			fail = mid
		}
	}
	if pass < 0 {
		return 0, steps
	}
	return rung(pass), steps
}

// meetsSLO judges one offered load: nothing failed or was shed, and
// accept p99 and generator lateness p99 are both within the SLO (so
// the backlog is not growing).
func meetsSLO(g genResult) bool {
	return g.failed == 0 && g.shed == 0 &&
		quantile(g.latencyMs, 0.99) <= sloMs && quantile(g.latenessMs, 0.99) <= sloMs
}

// cost is the wall and process-CPU time of each repetition of one
// operation (a boot, a restart). The gated figures are the medians of
// the CPU times: on a shared host the wall time of a few-millisecond
// boot or a replay follows the host's fsync and scheduling latency
// more than the program.
type cost struct{ wallS, cpuS []float64 }

// time runs op from a freshly collected heap, so every repetition
// starts from the same state, and records its cost. The collector
// stays on: the GC work op's own allocations cause is part of its
// cost.
func (c *cost) time(op func() error) error {
	runtime.GC()
	c0, t0 := cpuTime(), time.Now()
	if err := op(); err != nil {
		return err
	}
	c.wallS = append(c.wallS, time.Since(t0).Seconds())
	c.cpuS = append(c.cpuS, (cpuTime() - c0).Seconds())
	return nil
}
