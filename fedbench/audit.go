package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"zmail/internal/bank"
	"zmail/internal/crypto"
	"zmail/internal/isp"
	"zmail/internal/sim"
)

// audit_economy: an in-process sim.World on its virtual clock — the
// path every zsim experiment runs. Each simulated day, Zipf bulk
// senders mail uniformly chosen recipients; users below a balance
// floor buy e-pennies back to a target and users above a ceiling sell
// down to it; the day ends with a §4.4 audit round (SnapshotRound,
// with RSA sealers and settlement) and EndOfDay.
//
// The churn is sized so every pool crosses its band every day: each
// ISP receives about simMsgsPerDay/simISPs paid messages a day, and
// its receivers sell every e-penny above the target, which lifts the
// pool past MaxAvail = simPool + simBand; the ISPs hosting the
// heaviest senders also buy the pool below MinAvail and restock. The
// pool opens at simPool, above the heaviest ISP's daily buys, so no
// user buy finds it empty. The run records how many ISP-days crossed.
const (
	simISPs       = 32
	simUsers      = 32
	simBalance    = 2000 // opening and target user balance
	simFloor      = simBalance - 16
	simCeiling    = simBalance
	simPool       = 3000 // pool after registration
	simBand       = 24   // half-width of the pool band around simPool
	simMsgsPerDay = 4096
	simZipfS      = 1.2
	// simDaysPerSecond sizes the timed work: a fixed count of simulated
	// days per second of --seconds, never a duration, so a faster build
	// does the same work in less time.
	simDaysPerSecond = 2
	// simSetups repeats world set-up (33 RSA key pairs each) for the
	// setup_s median.
	simSetups = 3
)

func simConfig(seed int64) sim.Config {
	return sim.Config{
		NumISPs:        simISPs,
		UsersPerISP:    simUsers,
		InitialBalance: simBalance,
		InitialAccount: 1_000_000,
		DefaultLimit:   1 << 40,
		MinAvail:       simPool - simBand,
		MaxAvail:       simPool + simBand,
		InitialAvail:   simUsers*simBalance + simPool,
		RealCrypto:     true,
		Settle:         true,
		Seed:           seed,
		Workers:        1,
	}
}

// simTally is what the day loop counts.
type simTally struct {
	accepted, failed int64
	events           int64
	acceptUs         []float64
	roundMs          []float64 // completed rounds
	roundsFailed     int
	crossed          int // ISP-days on which the pool left its band
	cpu              time.Duration
	wall             time.Duration
	gc               time.Duration
	bank             bank.Stats
}

func runAuditEconomy(cfg runConfig, rec *record) error {
	heap0 := heapAfterGC()
	var setup cost
	var w *sim.World
	for i := 0; i < simSetups; i++ {
		err := setup.time(func() (err error) {
			w, err = sim.NewWorld(simConfig(cfg.seed))
			return err
		})
		if err != nil {
			return fmt.Errorf("world: %w", err)
		}
	}
	heapPerUser := float64(heapAfterGC()-heap0) / float64(simISPs*simUsers)
	w.Cfg.ChaosDir = filepath.Join(cfg.workDir, "chaos")
	if err := os.MkdirAll(w.Cfg.ChaosDir, 0o755); err != nil {
		return err
	}
	delivered0 := int64(w.TotalInbox())

	rng := rand.New(rand.NewSource(cfg.seed))
	zipf := rand.NewZipf(rng, simZipfS, 1, simISPs*simUsers-1)
	days := func(n int, sp *spans) simTally {
		return simulateDays(w, rng, zipf, n, sp)
	}

	simDays := max(int(cfg.budget/time.Second)*simDaysPerSecond, 4)
	var run, traced simTally
	if cfg.trace {
		run = days(simDays/2, nil)
		sp := newSpans()
		traced = days(simDays/2, sp)
		if err := sp.write(filepath.Join(cfg.outDir, fmt.Sprintf("audit_economy-seed%d.spans.json", cfg.seed))); err != nil {
			rec.note("write spans: %v", err)
		}
		rec.layer("trace.spans", float64(sp.count()))
	} else {
		run = days(simDays, nil)
	}
	all := run
	if cfg.trace {
		all = traced
		all.accepted += run.accepted
		all.failed += run.failed
		all.roundMs = append(all.roundMs, run.roundMs...)
		all.roundsFailed += run.roundsFailed
		all.crossed += run.crossed
	}
	rec.note("pools left their band on %d of %d ISP-days", all.crossed, simISPs*simDays)

	// Crash ISP 0 at quiescence and time its restart from the checkpoint
	// (the simulator's crash path), comparing the ledger before and after.
	var recovery cost
	restartOK, detail := true, "ledger identical after each restart"
	for i := 0; i < restarts; i++ {
		before := ledgerOf(w.Engine(0))
		if err := w.CrashISP(0); err != nil {
			restartOK, detail = false, fmt.Sprintf("crash %d: %v", i, err)
			break
		}
		if err := recovery.time(func() error { return w.RestartISP(0) }); err != nil {
			restartOK, detail = false, fmt.Sprintf("restart %d: %v", i, err)
			break
		}
		if after := ledgerOf(w.Engine(0)); !reflect.DeepEqual(before, after) {
			restartOK = false
			detail = fmt.Sprintf("restart %d: ledger differs (total %d → %d)", i, before.Total, after.Total)
		}
	}
	rec.check("restart_ledger_equal", restartOK, "%s", detail)
	rec.check("audits_complete", all.roundsFailed == 0, "%d of %d audit rounds completed",
		len(all.roundMs), len(all.roundMs)+all.roundsFailed)

	delivered := int64(w.TotalInbox()) - delivered0
	rec.check("delivered_eq_accepted", delivered == all.accepted,
		"delivered %d of %d accepted messages", delivered, all.accepted)
	flags := int64(len(w.Bank.Violations()))
	pairs := w.Bank.Stats().Rounds * simISPs * (simISPs - 1) / 2
	rec.observe("zero_flagged_pairs", flags == 0, "%d of %d audited pairs flagged", flags, pairs)
	total, initial, outstanding := w.TotalEPennies(), w.InitialEPennies(), w.Bank.Outstanding()
	drift := total - initial - outstanding
	rec.check("epenny_conservation", drift == 0, "|TotalEPennies %d − initial %d − Outstanding %d| = %d",
		total, initial, outstanding, abs(drift))

	rec.Attempted = all.accepted + all.failed
	rec.Failed = all.failed
	failedFrac := ratio(float64(rec.Failed), float64(rec.Attempted))
	rec.Samples["accept"] = len(run.acceptUs)
	rec.Samples["audit_rounds"] = len(all.roundMs)
	rec.Samples["setups"] = len(setup.cpuS)
	rec.Samples["restarts"] = len(recovery.wallS)
	rec.Samples["events"] = int(all.events)

	if cfg.trace {
		msgs := float64(traced.accepted)
		rounds := float64(traced.bank.Rounds)
		rec.layer("isp.submit_p50_us", quantile(traced.acceptUs, 0.5))
		rec.layer("isp.submit_p99_us", quantile(traced.acceptUs, 0.99))
		rec.layer("simnet.events_per_msg", ratio(float64(traced.events), msgs))
		rec.layer("bank.round_ms", median(traced.roundMs))
		orders := traced.bank.BuysAccepted + traced.bank.BuysDenied + traced.bank.Sells + traced.bank.BatchOrders
		rec.layer("bank.orders_per_round", ratio(float64(orders), rounds))
		rec.layer("bank.control_msgs_per_round", ratio(float64(traced.bank.ControlMsgs), rounds))
		rec.layer("bank.settlement_transfers_per_round", ratio(float64(traced.bank.SettlementTransfers), rounds))
		rec.layer("proc.gc_pause_ms", ms(traced.gc))
		rec.layer("proc.heap_peak_mb", float64(heapInUse())/(1<<20))
		box, err := crypto.GenerateBox(1024, nil)
		if err != nil {
			return fmt.Errorf("probe key: %w", err)
		}
		cryptoProbes(rec, box, simISPs)
		cpu := func(t simTally) float64 { return us(t.cpu) / float64(max(t.accepted, 1)) }
		rec.layer("trace.overhead_cpu_us_per_msg", cpu(traced)-cpu(run))
		rec.layer("trace.overhead_accept_p50_ms", (quantile(traced.acceptUs, 0.5)-quantile(run.acceptUs, 0.5))/1000)
		rec.layer("trace.overhead_accept_p99_ms", (quantile(traced.acceptUs, 0.99)-quantile(run.acceptUs, 0.99))/1000)
		rec.layer("check.failed_frac", failedFrac)
		rec.layer("check.false_flag_frac", ratio(float64(flags), float64(pairs)))
		rec.layer("check.epenny_drift", float64(abs(drift)))
		fillLayers(rec)
		return nil
	}

	simRate := ratio(float64(run.accepted), run.wall.Seconds())
	rec.e2e("setup_s", median(setup.cpuS), "s")
	rec.e2e("capacity_msgs_per_s", simRate, "msg/s")
	rec.cat("accept_p50_ms", quantile(run.acceptUs, 0.5)/1000, "ms")
	rec.e2e("cpu_us_per_msg", us(run.cpu)/float64(max(run.accepted, 1)), "us")
	rec.e2e("recovery_cpu_s", median(recovery.cpuS), "s")
	rec.e2e("heap_bytes_per_user", heapPerUser, "B")
	rec.e2e("audit_round_ms", median(run.roundMs), "ms")
	for k, m := range rec.EndToEnd {
		if k != "capacity_msgs_per_s" {
			rec.cat(k, m.Value, m.Unit)
		}
	}
	rec.cat("sim_msgs_per_s", simRate, "msg/s")
	rec.cat("accept_p99_ms", quantile(run.acceptUs, 0.99)/1000, "ms")
	rec.cat("setup_wall_s", median(setup.wallS), "s")
	rec.cat("recovery_s", median(recovery.wallS), "s")
	rec.cat("failed_frac", failedFrac, "ratio")
	rec.cat("false_flag_frac", ratio(float64(flags), float64(pairs)), "ratio")
	rec.cat("epenny_drift", float64(abs(drift)), "e-penny")
	return nil
}

// simulateDays runs n simulated days and tallies them.
func simulateDays(w *sim.World, rng *rand.Rand, zipf *rand.Zipf, n int, sp *spans) simTally {
	var t simTally
	bank0 := w.Bank.Stats()
	cpu0, gc0, wall0 := cpuTime(), gcPauseTotal(), time.Now()
	users := simISPs * simUsers
	addr := func(g int) string { return w.UserAddr(g%simISPs, g/simISPs) }
	for d := 0; d < n; d++ {
		day := sp.newID()
		dayStart := time.Now()
		for k := 0; k < simMsgsPerDay; k++ {
			from := int(zipf.Uint64())
			to := rng.Intn(users - 1)
			if to >= from {
				to++
			}
			subject := fmt.Sprintf("day %d #%d", d, k)
			t0 := time.Now()
			_, err := w.Send(addr(from), addr(to), subject, "bulk")
			t1 := time.Now()
			if sp != nil {
				sp.record(sp.newID(), day, "sim.send", t0, t1, subject)
			}
			t.acceptUs = append(t.acceptUs, us(t1.Sub(t0)))
			if err != nil {
				t.failed++
			} else {
				t.accepted++
			}
		}
		sp.time(day, "simnet.run", func() { t.events += int64(w.Run()) })
		sp.time(day, "sim.churn", func() { t.failed += churn(w, &t) })
		sp.time(day, "bank.snapshot_round", func() {
			t0 := time.Now()
			if err := w.SnapshotRound(); err != nil {
				t.failed++
				t.roundsFailed++
			} else {
				t.roundMs = append(t.roundMs, ms(time.Since(t0)))
			}
			t.events += int64(w.Run())
		})
		w.EndOfDay()
		sp.record(day, 0, "sim.day", dayStart, time.Now(), "")
	}
	t.wall = time.Since(wall0)
	t.cpu = cpuTime() - cpu0
	t.gc = gcPauseTotal() - gc0
	b := w.Bank.Stats()
	t.bank = bank.Stats{
		BuysAccepted:        b.BuysAccepted - bank0.BuysAccepted,
		BuysDenied:          b.BuysDenied - bank0.BuysDenied,
		Sells:               b.Sells - bank0.Sells,
		BatchOrders:         b.BatchOrders - bank0.BatchOrders,
		Rounds:              b.Rounds - bank0.Rounds,
		ControlMsgs:         b.ControlMsgs - bank0.ControlMsgs,
		SettlementTransfers: b.SettlementTransfers - bank0.SettlementTransfers,
	}
	return t
}

// churn trades every user back to simBalance — buys first, so the
// heavy senders' ISPs restock, then sells, so every receiving ISP
// sells its excess — ticking the pools after each side. It returns
// the number of trades that failed and counts the ISPs whose pool
// left its band.
func churn(w *sim.World, t *simTally) int64 {
	var failed int64
	crossed := make([]bool, simISPs)
	sides := []func(e *isp.Engine, u isp.UserInfo) error{
		func(e *isp.Engine, u isp.UserInfo) error {
			if u.Balance < simFloor {
				return e.BuyEPennies(u.Name, int64(simBalance-u.Balance))
			}
			return nil
		},
		func(e *isp.Engine, u isp.UserInfo) error {
			if u.Balance > simCeiling {
				return e.SellEPennies(u.Name, int64(u.Balance-simBalance))
			}
			return nil
		},
	}
	for _, trade := range sides {
		for i := 0; i < simISPs; i++ {
			e := w.Engine(i)
			for _, u := range e.Users() {
				if err := trade(e, u); err != nil {
					failed++
				}
			}
			lo, hi := e.PoolBand()
			if a := e.Avail(); a < lo || a > hi {
				crossed[i] = true
			}
			if err := e.Tick(); err != nil {
				failed++
			}
		}
		t.events += int64(w.Run())
	}
	for _, c := range crossed {
		if c {
			t.crossed++
		}
	}
	return failed
}
