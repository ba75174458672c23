package isp

import (
	"errors"
	"fmt"

	"zmail/internal/money"
	"zmail/internal/trace"
	"zmail/internal/wire"
)

// Errors specific to bank traffic.
var (
	ErrNotConfigured = errors.New("isp: bank sealers not configured")
	ErrStaleReply    = errors.New("isp: bank reply nonce does not match a pending request")
)

// Tick runs the §4.3 pool-maintenance guards: if the pool is below
// MinAvail and no buy is outstanding, request more inventory from the
// bank; if above MaxAvail and no sell is outstanding, sell the excess.
// Call it periodically (the simulator calls it after every delivery
// round; the daemon on a timer). Tick only touches the cold pool state
// and never blocks the send path.
func (e *Engine) Tick() error {
	var em emitQueue
	err := e.tick(&em)
	em.run()
	return err
}

func (e *Engine) tick(em *emitQueue) error {
	e.mu.Lock()
	defer e.mu.Unlock()

	// Re-arm a trade whose request (or reply) was lost in transit. The
	// sell's escrow is NOT refunded on re-arm: if the bank burned the
	// original and only the reply was lost, a refund would mint value.
	// Re-arming just unblocks future sells so the pool band recovers;
	// any stranded escrow is the loss the chaos auditor (internal/chaos)
	// accounts explicitly.
	if e.cfg.RestockRetry > 0 {
		now := e.cfg.Clock.Now()
		if !e.canBuy && now.Sub(e.buyAt) >= e.cfg.RestockRetry {
			e.canBuy = true
			e.stats.restockRetries.Add(1)
		}
		if !e.canSell && now.Sub(e.sellAt) >= e.cfg.RestockRetry {
			e.canSell = true
			e.stats.restockRetries.Add(1)
		}
	}

	if e.avail < e.cfg.MinAvail && e.canBuy {
		if e.cfg.BankSealer == nil {
			return ErrNotConfigured
		}
		nonce, err := e.nonces.Next()
		if err != nil {
			return fmt.Errorf("isp: buy nonce: %w", err)
		}
		e.walNonce(e.nonces.Counter())
		e.canBuy = false
		e.ns1 = nonce
		e.buyVal = e.cfg.RestockAmount
		e.buyAt = e.cfg.Clock.Now()
		body := (&wire.Buy{Value: int64(e.buyVal), Nonce: uint64(nonce)}).MarshalBinary()
		sealed, err := e.cfg.BankSealer.Seal(body)
		if err != nil {
			e.canBuy = true
			return fmt.Errorf("isp: seal buy: %w", err)
		}
		e.buyTrace = e.tracer.Next()
		e.tracer.Record(e.buyTrace, "buy", int64(e.buyVal), "request")
		env := &wire.Envelope{Kind: wire.KindBuy, From: int32(e.cfg.Index), Trace: uint64(e.buyTrace), Payload: sealed}
		em.add(func() { e.cfg.Transport.SendBank(env) })
	}

	if e.avail > e.cfg.MaxAvail && e.canSell {
		if e.cfg.BankSealer == nil {
			return ErrNotConfigured
		}
		nonce, err := e.nonces.Next()
		if err != nil {
			return fmt.Errorf("isp: sell nonce: %w", err)
		}
		e.walNonce(e.nonces.Counter())
		e.canSell = false
		e.ns2 = nonce
		// Sell down to the midpoint of the operating band. The sold
		// amount is escrowed out of the pool now: the paper's §4.3
		// pseudocode decrements avail only when the sellreply arrives,
		// which lets user buys during the bank round-trip overdraw the
		// pool (found by the model checker, experiment E14).
		mid := e.cfg.MinAvail + (e.cfg.MaxAvail-e.cfg.MinAvail)/2
		e.sellVal = e.avail - mid
		e.avail -= e.sellVal
		e.walPoolAdd(-int64(e.sellVal))
		e.sellAt = e.cfg.Clock.Now()
		body := (&wire.Sell{Value: int64(e.sellVal), Nonce: uint64(nonce)}).MarshalBinary()
		sealed, err := e.cfg.BankSealer.Seal(body)
		if err != nil {
			e.avail += e.sellVal
			e.walPoolAdd(int64(e.sellVal))
			e.canSell = true
			return fmt.Errorf("isp: seal sell: %w", err)
		}
		e.sellTrace = e.tracer.Next()
		e.tracer.Record(e.sellTrace, "sell", -int64(e.sellVal), "escrow")
		env := &wire.Envelope{Kind: wire.KindSell, From: int32(e.cfg.Index), Trace: uint64(e.sellTrace), Payload: sealed}
		em.add(func() { e.cfg.Transport.SendBank(env) })
	}
	return nil
}

// HandleBank processes a control message from the bank: buy/sell
// replies (§4.3) and snapshot requests (§4.4). Replies with stale or
// replayed nonces are dropped with ErrStaleReply, exactly as the
// paper's ns≠nr branches skip.
func (e *Engine) HandleBank(env *wire.Envelope) error {
	var em emitQueue
	err := e.handleBank(&em, env)
	em.run()
	return err
}

func (e *Engine) handleBank(em *emitQueue, env *wire.Envelope) error {
	if e.cfg.OwnSealer == nil {
		return ErrNotConfigured
	}
	plain, err := e.cfg.OwnSealer.Open(env.Payload)
	if err != nil {
		return fmt.Errorf("isp: open bank message: %w", err)
	}

	switch env.Kind {
	case wire.KindBuyReply:
		var br wire.BuyReply
		if err := br.UnmarshalBinary(plain); err != nil {
			return err
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.canBuy || br.Nonce != uint64(e.ns1) {
			return ErrStaleReply
		}
		e.canBuy = true
		e.lat.bankRTT.Observe(e.cfg.Clock.Now().Sub(e.buyAt))
		if br.Accepted {
			e.avail += e.buyVal
			e.walPoolAdd(int64(e.buyVal))
			e.tracer.Record(e.buyTrace, "restock", int64(e.buyVal), "accepted")
		} else {
			e.tracer.Record(e.buyTrace, "restock", 0, "denied")
		}
		return nil

	case wire.KindSellReply:
		var sr wire.SellReply
		if err := sr.UnmarshalBinary(plain); err != nil {
			return err
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.canSell || sr.Nonce != uint64(e.ns2) {
			return ErrStaleReply
		}
		// The sold amount was escrowed at send time; the reply only
		// closes the exchange.
		e.canSell = true
		e.lat.bankRTT.Observe(e.cfg.Clock.Now().Sub(e.sellAt))
		e.tracer.Record(e.sellTrace, "restock", 0, "sold")
		return nil

	case wire.KindRequest:
		var rq wire.Request
		if err := rq.UnmarshalBinary(plain); err != nil {
			return err
		}
		e.freezeMu.Lock()
		defer e.freezeMu.Unlock()
		e.mu.Lock()
		seq := e.seq
		e.mu.Unlock()
		// Replay protection is monotonic, not exact-match: a request for
		// an older billing period is a replay and is dropped, but a
		// request from the future is adopted — the bank is ahead (it
		// aborted a round this engine missed while down, or this
		// engine's report was lost). Adopting the bank's seq keeps a
		// restarted federation convergent instead of wedging every
		// subsequent round on a sequence mismatch.
		if rq.Seq < seq || e.frozen {
			return ErrStaleReply // replayed snapshot request (§4.4)
		}
		e.beginFreezeLocked(em, rq.Seq, trace.ID(env.Trace))
		return nil

	default:
		return fmt.Errorf("isp: unexpected bank message kind %v", env.Kind)
	}
}

// beginFreezeLocked starts the §4.4 snapshot: stop sending, arm the
// quiet-period timer. Call with freezeMu held for write. tid is the
// bank's round flow ID (zero when locally forced), carried through to
// the report so one trace covers request → freeze → report.
func (e *Engine) beginFreezeLocked(em *emitQueue, seq uint64, tid trace.ID) {
	if e.frozen {
		return
	}
	e.frozen = true
	e.tracer.Record(tid, "snapshot", 0, "freeze")
	em.add(func() {
		// finishFreeze drains the buffered outbox in a loop, so its net
		// delta is per-send × queue length — unbounded to the analysis.
		// Each drained send conserves individually via submit.
		//zlint:ignore moneyflow outbox drain repeats submit, whose per-send conservation is checked on its own
		e.cfg.Clock.AfterFunc(e.cfg.FreezeDuration, func() { e.finishFreeze(seq, tid) })
	})
}

// finishFreeze runs when the quiet period expires: report the credit
// array, reset it for the new billing period, thaw, and drain the
// buffered outbox. Holding freezeMu for write excludes every sender
// and receiver, so the report is an exact cut of the credit state.
func (e *Engine) finishFreeze(seq uint64, tid trace.ID) {
	e.freezeMu.Lock()
	if !e.frozen {
		e.freezeMu.Unlock()
		return
	}
	report := &wire.CreditReport{Seq: seq, Credits: make([]int64, len(e.credit))}
	for i := range e.credit {
		report.Credits[i] = e.credit[i].Swap(0)
	}
	e.frozen = false
	e.stats.snapshotRounds.Add(1)
	e.mu.Lock()
	e.seq = seq + 1 // follow the round actually reported (adopt-forward)
	outbox := e.outbox
	e.outbox = nil
	e.mu.Unlock()
	// Logged under the freeze write lock, which excludes every credit
	// delta: the meta segment's file order is the real zero-vs-delta
	// order.
	e.walCreditZero(seq + 1)
	e.freezeMu.Unlock()

	if e.cfg.BankSealer != nil {
		sealed, err := e.cfg.BankSealer.Seal(report.MarshalBinary())
		if err == nil {
			env := &wire.Envelope{Kind: wire.KindReply, From: int32(e.cfg.Index), Trace: uint64(tid), Payload: sealed}
			e.tracer.Record(tid, "report", 0, "sent")
			e.cfg.Transport.SendBank(env)
		}
		// A seal failure only skips the report; next round retries.
	}

	// Drain the buffered outbox through the normal submission path.
	// Messages that can no longer be funded are dropped, mirroring what
	// a real MTA queue does when an account is closed mid-queue.
	for _, msg := range outbox {
		var em emitQueue
		_, _ = e.submit(&em, msg, true)
		em.run()
	}
}

// ForceSnapshot triggers the freeze path without a bank request; used
// by tests and the simulator's direct-drive mode.
func (e *Engine) ForceSnapshot() {
	var em emitQueue
	e.freezeMu.Lock()
	e.mu.Lock()
	seq := e.seq
	e.mu.Unlock()
	e.beginFreezeLocked(&em, seq, e.tracer.Next())
	e.freezeMu.Unlock()
	em.run()
}

// PoolBand reports the configured (min, max) pool thresholds.
func (e *Engine) PoolBand() (money.EPenny, money.EPenny) {
	return e.cfg.MinAvail, e.cfg.MaxAvail
}
