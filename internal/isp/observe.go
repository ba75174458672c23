package isp

import (
	"zmail/internal/metrics"
)

// Pull-based telemetry: the engine implements metrics.Collector, so a
// scrape registry invokes Collect at scrape time and reads the live
// counters directly — nothing pushes between scrapes. Every series is
// labeled isp="<domain>", so one registry serves a whole federation.

var _ metrics.Collector = (*Engine)(nil)

// Collect implements metrics.Collector: it publishes the engine's
// throughput counters, pool state, stripe-contention counters, the
// admission queue's depth and counters, and registers the engine-owned
// hot-path latency histograms (admission, submission, remote receive,
// bank round trip, stripe-lock waits).
func (e *Engine) Collect(r *metrics.Registry) {
	isp := e.cfg.Domain
	g := func(name string, v float64) { r.Gauge(name, "isp", isp).Set(v) }

	st := e.Stats()
	g("zmail_isp_submitted_total", float64(st.Submitted))
	g("zmail_isp_delivered_local_total", float64(st.DeliveredLocal))
	g("zmail_isp_sent_paid_total", float64(st.SentPaid))
	g("zmail_isp_sent_unpaid_total", float64(st.SentUnpaid))
	g("zmail_isp_received_paid_total", float64(st.ReceivedPaid))
	g("zmail_isp_received_unpaid_total", float64(st.ReceivedUnpaid))
	g("zmail_isp_discarded_total", float64(st.Discarded))
	g("zmail_isp_acks_generated_total", float64(st.AcksGenerated))
	g("zmail_isp_acks_received_total", float64(st.AcksReceived))
	g("zmail_isp_buffered_total", float64(st.Buffered))
	g("zmail_isp_limit_rejects_total", float64(st.LimitRejects))
	g("zmail_isp_balance_rejects_total", float64(st.BalanceRejects))
	g("zmail_isp_snapshot_rounds_total", float64(st.SnapshotRounds))
	g("zmail_isp_zombie_warnings_total", float64(st.ZombieWarnings))
	g("zmail_isp_restock_retries_total", float64(st.RestockRetries))
	// Admission: rejected counts the submissions a full or detached
	// queue refused (the 451s); dropped counts admitted mail the commit
	// later refused.
	g("zmail_isp_queue_rejected_total", float64(st.QueueRejected))
	g("zmail_isp_queue_dropped_total", float64(st.QueueDropped))

	g("zmail_isp_pool_avail", float64(e.Avail()))
	if e.Frozen() {
		g("zmail_isp_frozen", 1)
	} else {
		g("zmail_isp_frozen", 0)
	}

	q := e.QueueStats()
	g("zmail_isp_queue_depth", float64(e.QueueDepth()))
	g("zmail_mempool_enqueued_total", float64(q.Enqueued))
	g("zmail_mempool_rejected_total", float64(q.Rejected))
	g("zmail_mempool_committed_total", float64(q.Committed))
	g("zmail_mempool_batches_total", float64(q.Batches))

	c := e.Contention()
	var hits, maxHits int64
	for _, h := range c.StripeHits {
		hits += h
		if h > maxHits {
			maxHits = h
		}
	}
	g("zmail_isp_stripe_hits_total", float64(hits))
	g("zmail_isp_stripe_contended_total", float64(c.Contended))
	if hits > 0 {
		// 1.0 = perfectly flat; stripes × busiest/total grows as load
		// concentrates on few stripes.
		g("zmail_isp_stripe_skew", float64(maxHits)*float64(len(c.StripeHits))/float64(hits))
	}

	r.SetLatency("zmail_isp_admit_seconds", e.lat.admit, "isp", isp)
	r.SetLatency("zmail_isp_submit_seconds", e.lat.submit, "isp", isp)
	r.SetLatency("zmail_isp_receive_seconds", e.lat.receive, "isp", isp)
	r.SetLatency("zmail_isp_bank_rtt_seconds", e.lat.bankRTT, "isp", isp)
	r.SetLatency("zmail_isp_stripe_wait_seconds", e.lat.stripeWait, "isp", isp)
}
