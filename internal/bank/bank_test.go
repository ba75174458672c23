package bank

import (
	"errors"
	"path/filepath"
	"testing"

	"zmail/internal/crypto"
	"zmail/internal/money"
	"zmail/internal/persist"
	"zmail/internal/wire"
)

// fakeTransport records envelopes per destination ISP.
type fakeTransport struct {
	out map[int][]*wire.Envelope
}

func newFake() *fakeTransport { return &fakeTransport{out: make(map[int][]*wire.Envelope)} }

func (f *fakeTransport) SendISP(index int, env *wire.Envelope) {
	f.out[index] = append(f.out[index], env)
}

func newBank(t *testing.T, n int, compliant []bool) (*Bank, *fakeTransport) {
	t.Helper()
	ft := newFake()
	b, err := New(Config{
		NumISPs:        n,
		Compliant:      compliant,
		InitialAccount: 1000,
		Transport:      ft,
		OwnSealer:      crypto.Null{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if compliant == nil || compliant[i] {
			if err := b.Enroll(i, crypto.Null{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b, ft
}

func buyEnv(from int32, value int64, nonce uint64) *wire.Envelope {
	return &wire.Envelope{Kind: wire.KindBuy, From: from,
		Payload: (&wire.Buy{Value: value, Nonce: nonce}).MarshalBinary()}
}

func sellEnv(from int32, value int64, nonce uint64) *wire.Envelope {
	return &wire.Envelope{Kind: wire.KindSell, From: from,
		Payload: (&wire.Sell{Value: value, Nonce: nonce}).MarshalBinary()}
}

func reportEnv(from int32, seq uint64, credits []int64) *wire.Envelope {
	return &wire.Envelope{Kind: wire.KindReply, From: from,
		Payload: (&wire.CreditReport{Seq: seq, Credits: credits}).MarshalBinary()}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := New(Config{NumISPs: 2, OwnSealer: crypto.Null{}}); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := New(Config{NumISPs: 2, Transport: newFake()}); err == nil {
		t.Error("nil sealer accepted")
	}
	if _, err := New(Config{NumISPs: 2, Transport: newFake(), OwnSealer: crypto.Null{}, Compliant: []bool{true}}); err == nil {
		t.Error("mismatched compliant length accepted")
	}
}

func TestBuyAcceptedAndDebited(t *testing.T) {
	b, ft := newBank(t, 2, nil)
	if err := b.Handle(buyEnv(0, 300, 1)); err != nil {
		t.Fatal(err)
	}
	acct, _ := b.Account(0)
	if acct != 700 {
		t.Fatalf("account = %v, want 700", acct)
	}
	if b.Outstanding() != 300 {
		t.Fatalf("outstanding = %d", b.Outstanding())
	}
	replies := ft.out[0]
	if len(replies) != 1 || replies[0].Kind != wire.KindBuyReply {
		t.Fatalf("replies = %+v", replies)
	}
	var br wire.BuyReply
	if err := br.UnmarshalBinary(replies[0].Payload); err != nil {
		t.Fatal(err)
	}
	if !br.Accepted || br.Nonce != 1 {
		t.Fatalf("reply = %+v", br)
	}
}

func TestBuyDeniedWhenBroke(t *testing.T) {
	b, ft := newBank(t, 1, nil)
	if err := b.Handle(buyEnv(0, 5000, 1)); err != nil {
		t.Fatal(err)
	}
	acct, _ := b.Account(0)
	if acct != 1000 {
		t.Fatal("denied buy changed the account")
	}
	var br wire.BuyReply
	_ = br.UnmarshalBinary(ft.out[0][0].Payload)
	if br.Accepted {
		t.Fatal("overdraw accepted")
	}
	st := b.Stats()
	if st.BuysDenied != 1 || st.Minted != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBuyZeroOrNegativeDenied(t *testing.T) {
	b, _ := newBank(t, 1, nil)
	if err := b.Handle(buyEnv(0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Handle(buyEnv(0, -50, 2)); err != nil {
		t.Fatal(err)
	}
	if b.Stats().BuysAccepted != 0 {
		t.Fatal("non-positive buy accepted")
	}
	acct, _ := b.Account(0)
	if acct != 1000 {
		t.Fatal("account changed")
	}
}

func TestSellCredited(t *testing.T) {
	b, ft := newBank(t, 1, nil)
	if err := b.Handle(sellEnv(0, 200, 7)); err != nil {
		t.Fatal(err)
	}
	acct, _ := b.Account(0)
	if acct != 1200 {
		t.Fatalf("account = %v", acct)
	}
	if b.Outstanding() != -200 {
		t.Fatalf("outstanding = %d", b.Outstanding())
	}
	var sr wire.SellReply
	_ = sr.UnmarshalBinary(ft.out[0][0].Payload)
	if sr.Nonce != 7 {
		t.Fatalf("reply nonce = %d", sr.Nonce)
	}
}

// The bank no longer takes the coalesced buy+sell order (wire kinds 8
// and 9), but a log written while it did still holds its records
// (bankRecBatch). The TestBatchOrder* tests pin how recovery folds
// them; appendBatchRecord and replayLog are in wal_test.go.

func TestBatchOrderMintAndBurn(t *testing.T) {
	// Each record's mint and burn land on the account of the ISP it
	// names.
	b := replayLog(t, func(b *Bank) {
		appendBatchRecord(t, b, 5, 0, 300, 100)
		appendBatchRecord(t, b, 6, 1, 0, 60)
	})
	a0, _ := b.Account(0)
	a1, _ := b.Account(1)
	if a0 != 1000-300+100 || a1 != 1000+60 {
		t.Fatalf("accounts = %v, %v; want 800, 1060", a0, a1)
	}
	st := b.Stats()
	if st.Minted != 300 || st.Burned != 160 || b.Outstanding() != 140 {
		t.Fatalf("stats = %+v, outstanding %d", st, b.Outstanding())
	}
}

func TestBatchOrderPartialFill(t *testing.T) {
	// The record holds what the bank granted, not what was asked: a
	// 5000 buy against a 1000 account was logged as a fill of 1000,
	// and an order on the emptied account as a zero fill that still
	// burned its sell side.
	b := replayLog(t, func(b *Bank) {
		appendBatchRecord(t, b, 1, 0, 1000, 0)
		appendBatchRecord(t, b, 2, 0, 0, 25)
	})
	acct, _ := b.Account(0)
	if acct != 25 {
		t.Fatalf("account = %v, want 25", acct)
	}
	if st := b.Stats(); st.Minted != 1000 || st.Burned != 25 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBatchOrderReplay(t *testing.T) {
	// A logged order replays in place between live per-side trades:
	// its mint and burn reach the account and the counters. Its nonce
	// outlives its record: after a recovery and a compaction that drops
	// the record from the log, the nonce is in the snapshot, so a
	// second recovery still refuses a buy or a sell that reuses it.
	dir := filepath.Join(t.TempDir(), "wal")
	b, _ := newBank(t, 2, nil)
	if err := b.AttachWAL(dir); err != nil {
		t.Fatal(err)
	}
	if err := b.Handle(buyEnv(0, 200, 1)); err != nil {
		t.Fatal(err)
	}
	appendBatchRecord(t, b, 2, 0, 300, 40)
	if err := b.Handle(sellEnv(0, 50, 3)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // close, recover, compact the log; again
		if err := b.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		b = recoverBank(t, dir)
		if err := b.CompactWAL(); err != nil {
			t.Fatal(err)
		}
	}
	defer func() { _ = b.CloseWAL() }()
	if acct, _ := b.Account(0); acct != 1000-200-300+40+50 {
		t.Fatalf("account = %v, want 590", acct)
	}
	if st := b.Stats(); st.Minted != 500 || st.Burned != 90 {
		t.Fatalf("Minted/Burned = %d/%d, want 500/90", st.Minted, st.Burned)
	}
	for _, env := range []*wire.Envelope{buyEnv(0, 10, 2), sellEnv(0, 10, 2)} {
		if err := b.Handle(env); !errors.Is(err, ErrReplay) {
			t.Fatalf("%v reusing a compacted order's nonce: %v", env.Kind, err)
		}
	}
}

func TestBatchOrderRejectsDegenerate(t *testing.T) {
	// A live envelope of a retired kind is refused before it touches
	// any state: no reply, no nonce retired.
	b, ft := newBank(t, 1, nil)
	for _, k := range []wire.Kind{8, 9} {
		env := &wire.Envelope{Kind: k, From: 0, Payload: (&wire.Buy{Value: 10, Nonce: 1}).MarshalBinary()}
		if err := b.Handle(env); err == nil {
			t.Fatalf("retired kind %d accepted", uint8(k))
		}
	}
	if acct, _ := b.Account(0); acct != 1000 || len(ft.out[0]) != 0 {
		t.Fatalf("retired kind changed state: account %v, replies %d", acct, len(ft.out[0]))
	}
	if err := b.Handle(buyEnv(0, 10, 1)); err != nil {
		t.Fatalf("nonce retired by a refused envelope: %v", err)
	}
	// A malformed record of the retired kind fails recovery instead of
	// folding a half-read order or touching an account that does not
	// exist.
	var badISP persist.RecordEnc
	badISP.U8(bankRecBatch)
	badISP.U64(1)
	badISP.U32(7)
	badISP.I64(10)
	badISP.I64(0)
	for name, rec := range map[string][]byte{
		"truncated":   {bankRecBatch, 1, 2, 3},
		"unknown ISP": badISP.B,
	} {
		dir := filepath.Join(t.TempDir(), "wal")
		b1, _ := newBank(t, 2, nil)
		if err := b1.AttachWAL(dir); err != nil {
			t.Fatal(err)
		}
		appendRecord(t, b1, rec)
		if err := b1.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		b2, _ := newBank(t, 2, nil)
		if err := b2.RecoverWAL(dir); err == nil {
			t.Fatalf("%s order record recovered", name)
		}
	}
}

func TestBatchOrderConservation(t *testing.T) {
	// A log mixing live per-side trades with logged orders replays to
	// the same money: accounts plus outstanding e-pennies.
	initial := money.Penny(2 * 1000)
	b := replayLog(t, func(b *Bank) {
		nonce := uint64(0)
		next := func() uint64 { nonce++; return nonce }
		for i := 0; i < 50; i++ {
			g := i % 2
			appendBatchRecord(t, b, next(), g, int64(10+i), int64(5+i))
			_ = b.Handle(buyEnv(int32(g), int64(3+i), next()))
			_ = b.Handle(sellEnv(int32(g), int64(1+i), next()))
		}
	})
	var accounts money.Penny
	for i := 0; i < 2; i++ {
		a, _ := b.Account(i)
		accounts += a
	}
	if accounts+money.Penny(b.Outstanding()) != initial {
		t.Fatalf("conservation: accounts %v + outstanding %d != %v",
			accounts, b.Outstanding(), initial)
	}
}

func TestReplayRejected(t *testing.T) {
	b, ft := newBank(t, 1, nil)
	env := buyEnv(0, 100, 42)
	if err := b.Handle(env); err != nil {
		t.Fatal(err)
	}
	if err := b.Handle(env); !errors.Is(err, ErrReplay) {
		t.Fatalf("replayed buy: %v", err)
	}
	acct, _ := b.Account(0)
	if acct != 900 {
		t.Fatal("replay debited twice")
	}
	if len(ft.out[0]) != 1 {
		t.Fatal("replay generated a reply")
	}
	// Nonces are global across message types: a sell reusing a buy
	// nonce is also a replay.
	if err := b.Handle(sellEnv(0, 10, 42)); !errors.Is(err, ErrReplay) {
		t.Fatalf("cross-type nonce reuse: %v", err)
	}
}

func TestUnknownOrNonCompliantISP(t *testing.T) {
	b, _ := newBank(t, 3, []bool{true, false, true})
	if err := b.Handle(buyEnv(1, 10, 1)); !errors.Is(err, ErrUnknownISP) {
		t.Fatalf("non-compliant: %v", err)
	}
	if err := b.Handle(buyEnv(9, 10, 2)); !errors.Is(err, ErrUnknownISP) {
		t.Fatalf("out of range: %v", err)
	}
	if err := b.Handle(buyEnv(-1, 10, 3)); !errors.Is(err, ErrUnknownISP) {
		t.Fatalf("negative: %v", err)
	}
}

func TestEnrollRequired(t *testing.T) {
	ft := newFake()
	b, err := New(Config{NumISPs: 1, InitialAccount: 100, Transport: ft, OwnSealer: crypto.Null{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Handle(buyEnv(0, 10, 1)); !errors.Is(err, ErrNotEnrolled) {
		t.Fatalf("unenrolled reply: %v", err)
	}
	if err := b.StartSnapshot(); !errors.Is(err, ErrNotEnrolled) {
		t.Fatalf("unenrolled snapshot: %v", err)
	}
}

func TestDeposit(t *testing.T) {
	b, _ := newBank(t, 2, []bool{true, false})
	if err := b.Deposit(0, 500); err != nil {
		t.Fatal(err)
	}
	acct, _ := b.Account(0)
	if acct != 1500 {
		t.Fatalf("account = %v", acct)
	}
	if err := b.Deposit(0, 0); err == nil {
		t.Error("zero deposit accepted")
	}
	if err := b.Deposit(1, 10); !errors.Is(err, ErrUnknownISP) {
		t.Errorf("deposit to non-compliant: %v", err)
	}
}

func TestSnapshotRoundHonest(t *testing.T) {
	b, ft := newBank(t, 3, nil)
	if err := b.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	if b.RoundComplete() {
		t.Fatal("round complete before replies")
	}
	if err := b.StartSnapshot(); !errors.Is(err, ErrRoundActive) {
		t.Fatalf("double start: %v", err)
	}
	for i := 0; i < 3; i++ {
		if len(ft.out[i]) != 1 || ft.out[i][0].Kind != wire.KindRequest {
			t.Fatalf("isp[%d] requests = %+v", i, ft.out[i])
		}
	}
	// Antisymmetric honest reports: credit[i][j] = -credit[j][i].
	_ = b.Handle(reportEnv(0, 0, []int64{0, 5, -2}))
	_ = b.Handle(reportEnv(1, 0, []int64{-5, 0, 7}))
	_ = b.Handle(reportEnv(2, 0, []int64{2, -7, 0}))
	if !b.RoundComplete() {
		t.Fatal("round not complete after all replies")
	}
	if got := b.Violations(); len(got) != 0 {
		t.Fatalf("honest round flagged %v", got)
	}
	if b.Stats().Rounds != 1 {
		t.Fatalf("rounds = %d", b.Stats().Rounds)
	}
}

func TestSnapshotRoundFlagsCheater(t *testing.T) {
	b, _ := newBank(t, 3, nil)
	if err := b.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	// isp1 misreports both of its rows: credit[0] should be -5 (isp0
	// claims +5 against it) and isp2's -4 contradicts isp1's +7.
	_ = b.Handle(reportEnv(0, 0, []int64{0, 5, -2}))
	_ = b.Handle(reportEnv(1, 0, []int64{-3, 0, 7}))
	_ = b.Handle(reportEnv(2, 0, []int64{2, -4, 0}))
	got := b.Violations()
	want := map[[2]int]bool{{0, 1}: true, {1, 2}: true}
	if len(got) != 2 {
		t.Fatalf("violations = %v, want pairs (0,1) and (1,2)", got)
	}
	for _, v := range got {
		if !want[[2]int{v.I, v.J}] {
			t.Fatalf("unexpected pair flagged: %v", v)
		}
	}
}

func TestSnapshotReplyReplay(t *testing.T) {
	b, _ := newBank(t, 2, nil)
	if err := b.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := b.Handle(reportEnv(0, 0, []int64{0, 1})); err != nil {
		t.Fatal(err)
	}
	// Duplicate reply from the same ISP.
	if err := b.Handle(reportEnv(0, 0, []int64{0, 99})); !errors.Is(err, ErrReplay) {
		t.Fatalf("duplicate reply: %v", err)
	}
	// Wrong-seq reply.
	if err := b.Handle(reportEnv(1, 5, []int64{-1, 0})); !errors.Is(err, ErrReplay) {
		t.Fatalf("wrong-seq reply: %v", err)
	}
	// Reply outside any round.
	if err := b.Handle(reportEnv(1, 0, []int64{-1, 0})); err != nil {
		t.Fatal(err)
	}
	if !b.RoundComplete() {
		t.Fatal("round incomplete")
	}
	if err := b.Handle(reportEnv(1, 0, []int64{-1, 0})); !errors.Is(err, ErrReplay) {
		t.Fatalf("reply outside round: %v", err)
	}
}

func TestSnapshotSkipsNonCompliant(t *testing.T) {
	b, ft := newBank(t, 3, []bool{true, false, true})
	if err := b.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	if len(ft.out[1]) != 0 {
		t.Fatal("request sent to non-compliant ISP")
	}
	_ = b.Handle(reportEnv(0, 0, []int64{0, 0, 4}))
	_ = b.Handle(reportEnv(2, 0, []int64{-4, 0, 0}))
	if !b.RoundComplete() {
		t.Fatal("round should complete with only compliant replies")
	}
	if len(b.Violations()) != 0 {
		t.Fatalf("flagged %v", b.Violations())
	}
}

func TestSecondRoundSeqAdvances(t *testing.T) {
	b, ft := newBank(t, 1, nil)
	_ = b.StartSnapshot()
	_ = b.Handle(reportEnv(0, 0, []int64{0}))
	_ = b.StartSnapshot()
	var rq wire.Request
	_ = rq.UnmarshalBinary(ft.out[0][1].Payload)
	if rq.Seq != 1 {
		t.Fatalf("second round seq = %d, want 1", rq.Seq)
	}
	// A stale round-0 report cannot satisfy round 1.
	if err := b.Handle(reportEnv(0, 0, []int64{0})); !errors.Is(err, ErrReplay) {
		t.Fatalf("stale report: %v", err)
	}
}

func TestControlMsgCounting(t *testing.T) {
	b, _ := newBank(t, 2, nil)
	_ = b.Handle(buyEnv(0, 10, 1))
	_ = b.Handle(sellEnv(1, 10, 2))
	_ = b.StartSnapshot()
	_ = b.Handle(reportEnv(0, 0, []int64{0, 0}))
	_ = b.Handle(reportEnv(1, 0, []int64{0, 0}))
	if got := b.Stats().ControlMsgs; got != 4 {
		t.Fatalf("ControlMsgs = %d, want 4", got)
	}
}

func TestMoneyConservationAcrossTrades(t *testing.T) {
	b, _ := newBank(t, 2, nil)
	initial := money.Penny(2 * 1000)
	nonce := uint64(0)
	next := func() uint64 { nonce++; return nonce }
	for i := 0; i < 50; i++ {
		_ = b.Handle(buyEnv(int32(i%2), int64(10+i), next()))
		_ = b.Handle(sellEnv(int32((i+1)%2), int64(5+i), next()))
	}
	var accounts money.Penny
	for i := 0; i < 2; i++ {
		a, _ := b.Account(i)
		accounts += a
	}
	// Real money + outstanding scrip value is constant.
	if accounts+money.Penny(b.Outstanding()) != initial {
		t.Fatalf("conservation: accounts %v + outstanding %d != %v",
			accounts, b.Outstanding(), initial)
	}
}
