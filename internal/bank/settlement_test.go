package bank

import (
	"testing"
	"testing/quick"

	"zmail/internal/crypto"
	"zmail/internal/money"
)

func newSettlingBank(t *testing.T, n int, funds money.Penny) (*Bank, *fakeTransport) {
	t.Helper()
	ft := newFake()
	b, err := New(Config{
		NumISPs:        n,
		InitialAccount: funds,
		Transport:      ft,
		OwnSealer:      crypto.Null{},
		SettleOnVerify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := b.Enroll(i, crypto.Null{}); err != nil {
			t.Fatal(err)
		}
	}
	return b, ft
}

func checkAccounts(t *testing.T, b *Bank, want []money.Penny) {
	t.Helper()
	for i, w := range want {
		if got, _ := b.Account(i); got != w {
			t.Errorf("account[%d] = %v, want %v", i, got, w)
		}
	}
}

func checkTransfers(t *testing.T, b *Bank, want []Transfer) {
	t.Helper()
	got := b.LastTransfers()
	if len(got) != len(want) {
		t.Fatalf("transfers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transfers = %v, want %v", got, want)
		}
	}
}

func TestSettlementMovesMoneyToNetReceivers(t *testing.T) {
	b, _ := newSettlingBank(t, 4, 1000)
	if err := b.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	// Pairwise: isp0 pays isp1 4 and isp3 6, isp1 pays isp2 4, isp3
	// pays isp2 1. Positions net to owes = [+10, 0, -5, -5]: isp1 passes
	// its 4 straight through and takes part in no transfer, and the
	// net receivers isp2 and isp3 are paid by the one net payer.
	reports := [][]int64{{0, 4, 0, 6}, {-4, 0, 4, 0}, {0, -4, 0, -1}, {-6, 0, 1, 0}}
	for i, r := range reports {
		_ = b.Handle(reportEnv(int32(i), 0, r))
	}
	if !b.RoundComplete() {
		t.Fatal("round incomplete")
	}
	checkAccounts(t, b, []money.Penny{990, 1000, 1005, 1005})
	checkAccounts(t, b, pairwiseAccounts(1000, reports))
	checkTransfers(t, b, []Transfer{{From: 0, To: 2, Amount: 5}, {From: 0, To: 3, Amount: 5}})
	st := b.Stats()
	if st.SettledPennies != 10 || st.SettlementTransfers != 2 || st.SettlementShortfalls != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSettlementConservesTotalMoney(t *testing.T) {
	// Four ISPs holding only 50 pennies each against positions of up to
	// ±199 per pair, so most rounds clamp some debtor: money is conserved
	// and no account goes negative even then.
	f := func(p01, p02, p03, p12, p13, p23 int16) bool {
		x := [6]int64{int64(p01 % 200), int64(p02 % 200), int64(p03 % 200),
			int64(p12 % 200), int64(p13 % 200), int64(p23 % 200)}
		reports := [][]int64{
			{0, x[0], x[1], x[2]},
			{-x[0], 0, x[3], x[4]},
			{-x[1], -x[3], 0, x[5]},
			{-x[2], -x[4], -x[5], 0},
		}
		bk, _ := newSettlingBank(t, 4, 50)
		before := bk.TotalAccounts()
		if err := bk.StartSnapshot(); err != nil {
			return false
		}
		for i, r := range reports {
			_ = bk.Handle(reportEnv(int32(i), 0, r))
		}
		for i := range reports {
			if a, _ := bk.Account(i); a < 0 {
				return false
			}
		}
		return bk.RoundComplete() && bk.TotalAccounts() == before && len(bk.Violations()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSettlementSkipsFlaggedPairs(t *testing.T) {
	b, _ := newSettlingBank(t, 3, 1000)
	_ = b.StartSnapshot()
	// isp1 understates pair (0,1): it claims -3 where isp0 claims +10.
	// Pairs (0,2) and (1,2) agree and still settle: isp0 pays isp2 5,
	// isp1 pays isp2 2, and the disputed 10 stays put.
	_ = b.Handle(reportEnv(0, 0, []int64{0, 10, 5}))
	_ = b.Handle(reportEnv(1, 0, []int64{-3, 0, 2}))
	_ = b.Handle(reportEnv(2, 0, []int64{-5, -2, 0}))
	if v := b.Violations(); len(v) != 1 {
		t.Fatalf("violations = %v, want the one pair (0,1)", v)
	}
	checkAccounts(t, b, []money.Penny{995, 998, 1007})
	checkTransfers(t, b, []Transfer{{From: 0, To: 2, Amount: 5}, {From: 1, To: 2, Amount: 2}})
}

func TestSettlementShortfall(t *testing.T) {
	b, _ := newSettlingBank(t, 4, 5)
	_ = b.StartSnapshot()
	// isp0 owes isp1 4 and isp2 6 but holds 5, so its position clamps
	// to 5: the sweep pays isp1 in full and isp2 the 1 left over. isp3
	// owes isp2 3 and can cover it, so its payment is untouched.
	_ = b.Handle(reportEnv(0, 0, []int64{0, 4, 6, 0}))
	_ = b.Handle(reportEnv(1, 0, []int64{-4, 0, 0, 0}))
	_ = b.Handle(reportEnv(2, 0, []int64{-6, 0, 0, -3}))
	_ = b.Handle(reportEnv(3, 0, []int64{0, 0, 3, 0}))
	checkAccounts(t, b, []money.Penny{0, 9, 9, 2})
	checkTransfers(t, b, []Transfer{
		{From: 0, To: 1, Amount: 4}, {From: 0, To: 2, Amount: 1}, {From: 3, To: 2, Amount: 3},
	})
	if got := b.Stats().SettlementShortfalls; got != 1 {
		t.Fatalf("shortfalls = %d, want 1 (isp0 only)", got)
	}
	if b.TotalAccounts() != 20 {
		t.Fatalf("total = %v, want 20", b.TotalAccounts())
	}
}

func TestSettlementRate(t *testing.T) {
	ft := newFake()
	b, err := New(Config{
		NumISPs: 2, InitialAccount: 1000, Transport: ft,
		OwnSealer: crypto.Null{}, SettleOnVerify: true, SettleRate: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = b.Enroll(0, crypto.Null{})
	_ = b.Enroll(1, crypto.Null{})
	_ = b.StartSnapshot()
	_ = b.Handle(reportEnv(0, 0, []int64{0, 4}))
	_ = b.Handle(reportEnv(1, 0, []int64{-4, 0}))
	a0, _ := b.Account(0)
	if a0 != 1000-12 {
		t.Fatalf("account[0] = %v, want %v (4 e-pennies at rate 3)", a0, money.Penny(988))
	}
}

func TestSettlementDisabledByDefault(t *testing.T) {
	b, _ := newBank(t, 2, nil)
	_ = b.StartSnapshot()
	_ = b.Handle(reportEnv(0, 0, []int64{0, 4}))
	_ = b.Handle(reportEnv(1, 0, []int64{-4, 0}))
	a0, _ := b.Account(0)
	if a0 != 1000 {
		t.Fatal("settlement ran while disabled")
	}
}

func TestGroupSettleNetsTransfers(t *testing.T) {
	b, _ := newSettlingBank(t, 3, 1000)
	if err := b.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	// An honest round with pairwise positions 0→1: 5, 1→2: 7, 2→0: 2,
	// netting to owes = [+3, +2, -5]. The multilateral sweep settles the
	// round in two transfers (0→2: 3, 1→2: 2) instead of three, moving 5
	// pennies instead of 14, with the final accounts pairwise payment
	// would leave.
	_ = b.Handle(reportEnv(0, 0, []int64{0, 5, -2}))
	_ = b.Handle(reportEnv(1, 0, []int64{-5, 0, 7}))
	_ = b.Handle(reportEnv(2, 0, []int64{2, -7, 0}))
	if !b.RoundComplete() {
		t.Fatal("round incomplete")
	}
	wantAccounts := []money.Penny{997, 998, 1005}
	for i, want := range wantAccounts {
		got, _ := b.Account(i)
		if got != want {
			t.Errorf("account[%d] = %v, want %v", i, got, want)
		}
	}
	transfers := b.LastTransfers()
	want := []Transfer{{From: 0, To: 2, Amount: 3}, {From: 1, To: 2, Amount: 2}}
	if len(transfers) != len(want) || transfers[0] != want[0] || transfers[1] != want[1] {
		t.Fatalf("transfers = %v, want %v", transfers, want)
	}
	st := b.Stats()
	if st.SettledPennies != 5 || st.SettlementTransfers != 2 || st.SettlementShortfalls != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGroupSettleConservesTotalMoney(t *testing.T) {
	f := func(a, bb, c int16) bool {
		bk, _ := newSettlingBank(t, 3, 100_000)
		before := bk.TotalAccounts()
		if err := bk.StartSnapshot(); err != nil {
			return false
		}
		x, y, z := int64(a%1000), int64(bb%1000), int64(c%1000)
		_ = bk.Handle(reportEnv(0, 0, []int64{0, x, -z}))
		_ = bk.Handle(reportEnv(1, 0, []int64{-x, 0, y}))
		_ = bk.Handle(reportEnv(2, 0, []int64{z, -y, 0}))
		return bk.RoundComplete() && bk.TotalAccounts() == before && len(bk.Violations()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// pairwiseAccounts is the test oracle for netting: the accounts left by
// paying every pair's net directly, pair by pair in index order, from
// the payer's own report (credit_i[j] = reports[i][j]). A payer that
// cannot cover a pair pays what it holds.
func pairwiseAccounts(funds money.Penny, reports [][]int64) []money.Penny {
	account := make([]money.Penny, len(reports))
	for i := range account {
		account[i] = funds
	}
	for i := range reports {
		for j := i + 1; j < len(reports); j++ {
			payer, payee, amount := i, j, money.Penny(reports[i][j])
			if amount < 0 {
				payer, payee, amount = j, i, -amount
			}
			amount = min(amount, account[payer])
			account[payer] -= amount
			account[payee] += amount
		}
	}
	return account
}

func TestGroupSettleMatchesPairwiseAccounts(t *testing.T) {
	// Netting changes the transfer list, never the final accounts: every
	// ISP must land on the balance pairwise payment would leave it for
	// honest rounds.
	f := func(a, bb, c int16) bool {
		x, y, z := int64(a%1000), int64(bb%1000), int64(c%1000)
		reports := [][]int64{{0, x, -z}, {-x, 0, y}, {z, -y, 0}}
		bk, _ := newSettlingBank(t, 3, 100_000)
		if err := bk.StartSnapshot(); err != nil {
			return false
		}
		for i, r := range reports {
			_ = bk.Handle(reportEnv(int32(i), 0, r))
		}
		want := pairwiseAccounts(100_000, reports)
		for i := range want {
			if got, _ := bk.Account(i); got != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestGroupSettleShortfall(t *testing.T) {
	b, _ := newSettlingBank(t, 2, 3) // isp0 can only cover 3 of 10
	_ = b.StartSnapshot()
	_ = b.Handle(reportEnv(0, 0, []int64{0, 10}))
	_ = b.Handle(reportEnv(1, 0, []int64{-10, 0}))
	a0, _ := b.Account(0)
	a1, _ := b.Account(1)
	if a0 != 0 || a1 != 6 {
		t.Fatalf("shortfall accounts = %v/%v, want 0/6", a0, a1)
	}
	if b.Stats().SettlementShortfalls != 1 {
		t.Fatal("shortfall not counted")
	}
}

func TestGroupSettleSkipsFlaggedPairs(t *testing.T) {
	b, _ := newSettlingBank(t, 2, 1000)
	_ = b.StartSnapshot()
	_ = b.Handle(reportEnv(0, 0, []int64{0, 10}))
	_ = b.Handle(reportEnv(1, 0, []int64{-3, 0}))
	if len(b.Violations()) != 1 {
		t.Fatal("pair not flagged")
	}
	a0, _ := b.Account(0)
	a1, _ := b.Account(1)
	if a0 != 1000 || a1 != 1000 {
		t.Fatalf("flagged pair netted anyway: %v/%v", a0, a1)
	}
	if len(b.LastTransfers()) != 0 {
		t.Fatal("transfers recorded for a flagged round")
	}
}

// TestSettlementEndToEndMeaning ties the pieces together: after
// settlement, each ISP's bank account reflects the net e-penny flow its
// users produced, so an ISP whose users are net receivers (a popular
// newsletter host, say) is made whole in real money.
func TestSettlementEndToEndMeaning(t *testing.T) {
	b, _ := newSettlingBank(t, 2, 1000)
	for round := uint64(0); round < 3; round++ {
		if err := b.StartSnapshot(); err != nil {
			t.Fatal(err)
		}
		// Every period, isp0's users net-send 10 to isp1's users.
		_ = b.Handle(reportEnv(0, round, []int64{0, 10}))
		_ = b.Handle(reportEnv(1, round, []int64{-10, 0}))
	}
	a0, _ := b.Account(0)
	a1, _ := b.Account(1)
	if a0 != 970 || a1 != 1030 {
		t.Fatalf("after 3 periods: %v/%v, want 970/1030", a0, a1)
	}
}
