package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"zmail/internal/crypto"
	"zmail/internal/load"
	"zmail/internal/metrics"
	"zmail/internal/persist"
	"zmail/internal/wire"
)

// layerDef is one row of the per-layer table: the metric, its unit,
// and the end-to-end metric (and workload) it should move.
type layerDef struct {
	name, unit, moves string
}

// layerDefs is the per-layer table, in report order. Every workload
// reports every row; a layer the workload does not exercise reads 0.
var layerDefs = []layerDef{
	{"load.lateness_p99_ms", "ms", "none: open-loop validity (relay_mix, local_submit)"},
	{"load.lateness_max_ms", "ms", "none: open-loop validity (relay_mix, local_submit)"},
	{"smtp.send_p50_us", "us", "accept_p50_ms (local_submit)"},
	{"smtp.send_p99_us", "us", "accept_p99_ms (local_submit)"},
	{"smtp.self_us", "us", "accept_p50_ms (local_submit)"},
	{"core.relay_dials_per_rcpt", "count", "cpu_us_per_msg, capacity (relay_mix); 0 on local_submit"},
	{"core.relay_inflight_mean", "count", "false_flag_frac, epenny_drift (relay_mix)"},
	{"core.relay_inflight_max", "count", "false_flag_frac, epenny_drift (relay_mix)"},
	{"isp.submit_p50_us", "us", "accept_p50_ms (local_submit)"},
	{"isp.submit_p99_us", "us", "accept_p99_ms (local_submit)"},
	{"isp.receive_p99_us", "us", "cpu_us_per_msg (relay_mix)"},
	{"isp.stripe_contended_frac", "ratio", "capacity (relay_mix, Zipf senders)"},
	{"isp.stripe_wait_p99_us", "us", "capacity (relay_mix, Zipf senders)"},
	{"isp.bank_rtt_p99_ms", "ms", "audit_round_ms (audit_economy)"},
	{"isp.frozen_frac", "ratio", "accept_p99_ms, false_flag_frac (relay_mix)"},
	{"isp.buffered_per_round", "count", "accept_p99_ms, false_flag_frac (relay_mix)"},
	{"isp.queue_dropped", "count", "failed_frac (local_submit)"},
	{"mempool.depth_mean", "count", "capacity, accept_p99_ms (local_submit)"},
	{"mempool.depth_max", "count", "capacity, accept_p99_ms (local_submit)"},
	{"mempool.wait_ms", "ms", "capacity, accept_p99_ms (local_submit)"},
	{"mempool.batch_mean", "count", "capacity, cpu_us_per_msg (local_submit)"},
	{"mempool.rejected", "count", "failed_frac (local_submit)"},
	{"persist.bytes_per_msg", "B", "cpu_us_per_msg, recovery_s (local_submit)"},
	{"persist.append_us", "us", "cpu_us_per_msg (local_submit)"},
	{"persist.sync_us", "us", "recovery_s (local_submit)"},
	{"persist.replay_records_per_s", "1/s", "recovery_s (local_submit)"},
	{"crypto.seal_us", "us", "audit_round_ms (audit_economy)"},
	{"crypto.open_us", "us", "audit_round_ms (audit_economy)"},
	{"wire.envelope_bytes", "B", "audit_round_ms (audit_economy)"},
	{"wire.codec_us", "us", "audit_round_ms (audit_economy)"},
	{"bank.round_ms", "ms", "audit_round_ms; false_flag_frac, accept_p99_ms (relay_mix)"},
	{"bank.orders_per_round", "count", "audit_round_ms, capacity (audit_economy)"},
	{"bank.control_msgs_per_round", "count", "audit_round_ms, capacity (audit_economy)"},
	{"bank.settlement_transfers_per_round", "count", "audit_round_ms, capacity (audit_economy)"},
	{"simnet.events_per_msg", "count", "capacity (audit_economy)"},
	{"proc.gc_pause_ms", "ms", "accept_p99_ms, capacity (relay_mix, local_submit)"},
	{"proc.heap_peak_mb", "MB", "accept_p99_ms, capacity (relay_mix, local_submit)"},
	{"proc.tcp_timewait_end", "count", "accept_p99_ms, capacity (relay_mix, local_submit)"},
	{"trace.overhead_cpu_us_per_msg", "us", "tracing cost: traced − untraced cpu_us_per_msg"},
	{"trace.overhead_accept_p50_ms", "ms", "tracing cost: traced − untraced accept_p50_ms"},
	{"trace.overhead_accept_p99_ms", "ms", "tracing cost: traced − untraced accept_p99_ms"},
	{"trace.spans", "count", "spans recorded by the traced run"},
	{"check.failed_frac", "ratio", "failed operations over attempted"},
	{"check.false_flag_frac", "ratio", "flagged pairs over audited pairs (all ISPs are honest)"},
	{"check.epenny_drift", "e-penny", "|TotalEPennies − initial − Outstanding| at quiescence"},
}

func layerUnit(name string) string {
	for _, d := range layerDefs {
		if d.name == name {
			return d.unit
		}
	}
	panic("fedbench: undeclared per-layer metric " + name)
}

// fillLayers reports 0 for every per-layer metric the workload does
// not exercise, so every traced run carries the whole table.
func fillLayers(rec *record) {
	for _, d := range layerDefs {
		if _, ok := rec.Layers[d.name]; !ok {
			rec.layer(d.name, 0)
		}
	}
}

// layers fills the per-layer table for a mail workload from the
// counters differenced over the traced fixed-rate phase.
func (f *fed) layers(rec *record, a, b fedSnap, g genResult, pl *poller) {
	elapsed := b.at.Sub(a.at).Seconds()
	rec.layer("load.lateness_p99_ms", quantile(g.latenessMs, 0.99))
	rec.layer("load.lateness_max_ms", quantile(g.latenessMs, 1))

	// delta is one engine histogram's observations over the phase;
	// quantileUs reads it in microseconds.
	delta := func(name string) *load.Histogram { return subHist(b.hists[name], a.hists[name]) }
	quantileUs := func(h *load.Histogram, q float64) float64 { return h.Quantile(q) * 1e6 }
	submit := delta("zmail_isp_submit_seconds")
	var send metrics.Histogram
	for _, v := range g.sendUs {
		send.Observe(v)
	}
	rec.layer("smtp.send_p50_us", quantile(g.sendUs, 0.5))
	rec.layer("smtp.send_p99_us", quantile(g.sendUs, 0.99))
	rec.layer("smtp.self_us", send.Mean()-1e6*ratio(submit.Sum, float64(submit.Count)))

	// Relay dials are every TCP connect in the phase except the
	// generator's own (bank links and the root uplink are persistent).
	dials := float64(b.opens-a.opens) - float64(g.dials)
	remote := float64(b.stats.SentPaid - a.stats.SentPaid)
	rec.layer("core.relay_dials_per_rcpt", ratio(max(dials, 0), max(remote, 1)))
	rec.layer("core.relay_inflight_mean", pl.inflight.Mean())
	rec.layer("core.relay_inflight_max", pl.inflight.Max())

	rec.layer("isp.submit_p50_us", quantileUs(submit, 0.5))
	rec.layer("isp.submit_p99_us", quantileUs(submit, 0.99))
	rec.layer("isp.receive_p99_us", quantileUs(delta("zmail_isp_receive_seconds"), 0.99))
	var hitsA, hitsB int64
	for _, h := range a.cont.StripeHits {
		hitsA += h
	}
	for _, h := range b.cont.StripeHits {
		hitsB += h
	}
	rec.layer("isp.stripe_contended_frac", ratio(float64(b.cont.Contended-a.cont.Contended), float64(hitsB-hitsA)))
	rec.layer("isp.stripe_wait_p99_us", quantileUs(delta("zmail_isp_stripe_wait_seconds"), 0.99))
	rec.layer("isp.bank_rtt_p99_ms", quantileUs(delta("zmail_isp_bank_rtt_seconds"), 0.99)/1000)
	rec.layer("isp.frozen_frac", pl.frozen.Mean())
	rec.layer("isp.buffered_per_round", ratio(float64(b.stats.Buffered-a.stats.Buffered), float64(b.stats.SnapshotRounds-a.stats.SnapshotRounds)))
	rec.layer("isp.queue_dropped", float64(b.stats.QueueDropped-a.stats.QueueDropped))

	committed := float64(b.queue.Committed - a.queue.Committed)
	rec.layer("mempool.depth_mean", pl.depth.Mean())
	rec.layer("mempool.depth_max", pl.depth.Max())
	// Little's law: mean time in queue = mean depth / commit rate.
	rec.layer("mempool.wait_ms", 1000*ratio(pl.depth.Mean(), committed/elapsed))
	rec.layer("mempool.batch_mean", ratio(committed, float64(b.queue.Batches-a.queue.Batches)))
	rec.layer("mempool.rejected", float64(b.queue.Rejected-a.queue.Rejected))

	rec.layer("persist.bytes_per_msg", ratio(float64(b.walBytes-a.walBytes), float64(g.accepted)))

	rounds := float64(b.bank.Rounds - a.bank.Rounds)
	orders := (b.bank.BatchOrders - a.bank.BatchOrders) + (b.bank.BuysAccepted - a.bank.BuysAccepted) +
		(b.bank.BuysDenied - a.bank.BuysDenied) + (b.bank.Sells - a.bank.Sells)
	rec.layer("bank.orders_per_round", ratio(float64(orders), rounds))
	rec.layer("bank.control_msgs_per_round", ratio(float64(b.bank.ControlMsgs-a.bank.ControlMsgs), rounds))
	rec.layer("bank.settlement_transfers_per_round", ratio(float64(b.bank.SettlementTransfers-a.bank.SettlementTransfers), rounds))

	rec.layer("proc.gc_pause_ms", ms(b.gc-a.gc))
	rec.layer("proc.heap_peak_mb", float64(pl.heapPeak)/(1<<20))
	cryptoProbes(rec, crypto.Null{}, fedISPs)
}

// persistProbes times the WAL layer directly: replay of a copy of ISP
// 0's log (records per second, and the mean record size), then
// appends and fsyncs of records of that size into a scratch log.
func (f *fed) persistProbes(rec *record, workDir string) {
	perSec, size, err := replayProbe(filepath.Join(f.dir, "isp0"), filepath.Join(workDir, "replay-probe"))
	if err != nil {
		rec.note("persist replay probe: %v", err)
		return
	}
	rec.layer("persist.replay_records_per_s", perSec)
	appendUs, syncUs, err := appendProbe(filepath.Join(workDir, "append-probe"), size)
	if err != nil {
		rec.note("persist append probe: %v", err)
		return
	}
	rec.layer("persist.append_us", appendUs)
	rec.layer("persist.sync_us", syncUs)
}

// replayProbe copies the WAL in src to dst and replays the copy,
// returning records per second and the mean record size.
func replayProbe(src, dst string) (perSec float64, size int, err error) {
	defer os.RemoveAll(dst)
	if err := copyDir(src, dst); err != nil {
		return 0, 0, err
	}
	segs, _ := filepath.Glob(filepath.Join(dst, "seg*.wal"))
	var records, bytes int64
	var snap json.RawMessage
	t0 := time.Now()
	w, err := persist.RecoverWAL(dst, len(segs), &snap, func(_ int, payload []byte) error {
		records++
		bytes += int64(len(payload))
		return nil
	})
	took := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	if err := w.Close(); err != nil {
		return 0, 0, err
	}
	return ratio(float64(records), took.Seconds()), int(ratio(float64(bytes), float64(records))), nil
}

// appendProbe appends 2,000 records of size bytes to a fresh WAL in
// dir, fsyncing every 100, and returns the median append and fsync
// times in microseconds.
func appendProbe(dir string, size int) (appendUs, syncUs float64, err error) {
	defer os.RemoveAll(dir)
	w, err := persist.CreateWAL(dir, 1, struct{}{})
	if err != nil {
		return 0, 0, err
	}
	payload := make([]byte, max(size, 1))
	var appends, syncs []float64
	for i := 0; i < 2000 && err == nil; i++ {
		t := time.Now()
		if err = w.Append(0, payload); err != nil {
			break
		}
		appends = append(appends, us(time.Since(t)))
		if i%100 == 99 {
			t = time.Now()
			if err = w.Sync(); err == nil {
				syncs = append(syncs, us(time.Since(t)))
			}
		}
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return median(appends), median(syncs), err
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// cryptoProbes times the crypto and wire layers directly on the audit
// report a federation of nISPs exchanges every round: seal and open
// with the workload's sealer, and the envelope codec round trip.
func cryptoProbes(rec *record, box crypto.Sealer, nISPs int) {
	report := (&wire.CreditReport{Seq: 7, Credits: make([]int64, nISPs)}).MarshalBinary()
	var sealUs, openUs, codecUs []float64
	var env *wire.Envelope
	for i := 0; i < 200; i++ {
		t := time.Now()
		sealed, err := box.Seal(report)
		sealUs = append(sealUs, us(time.Since(t)))
		if err != nil {
			rec.note("crypto probe seal: %v", err)
			return
		}
		t = time.Now()
		if _, err := box.Open(sealed); err != nil {
			rec.note("crypto probe open: %v", err)
			return
		}
		openUs = append(openUs, us(time.Since(t)))
		env = &wire.Envelope{Kind: wire.KindReply, From: 1, Trace: 42, Payload: sealed}
	}
	var buf []byte
	for i := 0; i < 2000; i++ {
		t := time.Now()
		buf = env.AppendBinary(buf[:0])
		var back wire.Envelope
		if err := back.UnmarshalBinary(buf); err != nil {
			rec.note("wire probe: %v", err)
			return
		}
		codecUs = append(codecUs, us(time.Since(t)))
	}
	rec.layer("crypto.seal_us", median(sealUs))
	rec.layer("crypto.open_us", median(openUs))
	rec.layer("wire.envelope_bytes", float64(len(buf)))
	rec.layer("wire.codec_us", median(codecUs))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
