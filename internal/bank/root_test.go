package bank

import (
	"errors"
	"testing"

	"zmail/internal/crypto"
	"zmail/internal/wire"
)

// report builds the forwarded envelope isp g would send for round seq
// with the given credit array, sealed with the shared (null) bank key.
func report(t *testing.T, g int, seq uint64, credits []int64) *wire.Envelope {
	t.Helper()
	body := (&wire.CreditReport{Seq: seq, Credits: credits}).MarshalBinary()
	sealed, err := crypto.Null{}.Seal(body)
	if err != nil {
		t.Fatal(err)
	}
	return &wire.Envelope{Kind: wire.KindReply, From: int32(g), Payload: sealed}
}

func newTestRoot(t *testing.T, assign []int, compliant []bool) *Root {
	t.Helper()
	r, err := NewRoot(RootConfig{
		NumISPs:   len(assign),
		Assign:    assign,
		Compliant: compliant,
		OwnSealer: crypto.Null{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRootConfigValidation(t *testing.T) {
	if _, err := NewRoot(RootConfig{NumISPs: 0, OwnSealer: crypto.Null{}}); err == nil {
		t.Error("zero NumISPs accepted")
	}
	if _, err := NewRoot(RootConfig{NumISPs: 2, Assign: []int{0}, OwnSealer: crypto.Null{}}); err == nil {
		t.Error("short Assign accepted")
	}
	if _, err := NewRoot(RootConfig{NumISPs: 2, Assign: []int{0, 1}}); err == nil {
		t.Error("missing OwnSealer accepted")
	}
	if _, err := NewRoot(RootConfig{NumISPs: 2, Assign: []int{0, 1}, Compliant: []bool{true}, OwnSealer: crypto.Null{}}); err == nil {
		t.Error("short Compliant accepted")
	}
}

// TestRootCrossRegionOnly: a clean cross-region round verifies with no
// violations, and an intra-region mismatch is NOT the root's problem
// (its leaf flags it) while a cross-region mismatch is.
func TestRootCrossRegionOnly(t *testing.T) {
	// Regions: {0,1} and {2,3}.
	r := newTestRoot(t, []int{0, 0, 1, 1}, nil)

	// Round 0: isp0↔isp2 balanced, isp1↔isp3 balanced; the intra-region
	// pair isp0↔isp1 is wildly inconsistent (5 + 5 != 0) but must not
	// be flagged here.
	reports := [][]int64{
		{0, 5, 7, 0},
		{5, 0, 0, -2},
		{-7, 0, 0, 0},
		{0, 2, 0, 0},
	}
	for g, credits := range reports {
		if err := r.Handle(report(t, g, 0, credits)); err != nil {
			t.Fatalf("isp%d report: %v", g, err)
		}
	}
	if got := r.RoundsVerified(); got != 1 {
		t.Fatalf("RoundsVerified = %d, want 1", got)
	}
	if v := r.Violations(); len(v) != 0 {
		t.Fatalf("clean cross-region round flagged %v", v)
	}
	st := r.Stats()
	if st.CrossPairs != 4 { // (0,2) (0,3) (1,2) (1,3)
		t.Fatalf("CrossPairs = %d, want 4", st.CrossPairs)
	}

	// Round 1: isp0 understates its debt to isp3 (cheater): 3 + (-1) != 0.
	reports = [][]int64{
		{0, 0, 0, -1},
		{0, 0, 0, 0},
		{0, 0, 0, 0},
		{3, 0, 0, 0},
	}
	for g, credits := range reports {
		if err := r.Handle(report(t, g, 1, credits)); err != nil {
			t.Fatalf("round 1 isp%d report: %v", g, err)
		}
	}
	v := r.Violations()
	if len(v) != 1 || v[0].I != 0 || v[0].J != 3 {
		t.Fatalf("violations = %v, want exactly isp0/isp3", v)
	}
}

func TestRootRejectsDuplicatesAndStrays(t *testing.T) {
	r := newTestRoot(t, []int{0, 1}, nil)
	if err := r.Handle(report(t, 0, 0, []int64{0, 0})); err != nil {
		t.Fatal(err)
	}
	if err := r.Handle(report(t, 0, 0, []int64{0, 0})); !errors.Is(err, ErrReplay) {
		t.Fatalf("duplicate report = %v, want ErrReplay", err)
	}
	if err := r.Handle(report(t, 7, 0, []int64{0, 0})); !errors.Is(err, ErrUnknownISP) {
		t.Fatalf("out-of-range From = %v, want ErrUnknownISP", err)
	}
	if err := r.Handle(&wire.Envelope{Kind: wire.KindBuy, From: 0}); err == nil {
		t.Error("buy on the uplink accepted")
	}
	if err := r.Handle(&wire.Envelope{Kind: wire.KindHello, From: 0}); err != nil {
		t.Errorf("hello = %v, want nil", err)
	}
	if st := r.Stats(); st.Replays != 2 {
		t.Fatalf("Replays = %d, want 2", st.Replays)
	}
}

// TestRootNonCompliant: non-compliant ISPs never report and never
// block round completion.
func TestRootNonCompliant(t *testing.T) {
	r := newTestRoot(t, []int{0, 0, 1}, []bool{true, false, true})
	if err := r.Handle(report(t, 0, 0, []int64{0, 0, 4})); err != nil {
		t.Fatal(err)
	}
	if err := r.Handle(report(t, 2, 0, []int64{-4, 0, 0})); err != nil {
		t.Fatal(err)
	}
	if got := r.RoundsVerified(); got != 1 {
		t.Fatalf("round did not complete without the non-compliant report (rounds=%d)", got)
	}
	if err := r.Handle(report(t, 1, 0, []int64{0, 0, 0})); !errors.Is(err, ErrUnknownISP) {
		t.Fatalf("non-compliant report = %v, want ErrUnknownISP", err)
	}
}

// TestRootInterleavedRounds: reports from two rounds arriving
// interleaved (leaves run at slightly different phase) still land in
// the right rounds, and abandoned partial rounds are pruned.
func TestRootInterleavedRounds(t *testing.T) {
	r := newTestRoot(t, []int{0, 1}, nil)
	if err := r.Handle(report(t, 0, 0, []int64{0, 1})); err != nil {
		t.Fatal(err)
	}
	if err := r.Handle(report(t, 0, 1, []int64{0, 2})); err != nil {
		t.Fatal(err)
	}
	if err := r.Handle(report(t, 1, 1, []int64{-2, 0})); err != nil {
		t.Fatal(err)
	}
	if err := r.Handle(report(t, 1, 0, []int64{-1, 0})); err != nil {
		t.Fatal(err)
	}
	if got := r.RoundsVerified(); got != 2 {
		t.Fatalf("RoundsVerified = %d, want 2", got)
	}
	if v := r.Violations(); len(v) != 0 {
		t.Fatalf("balanced interleaved rounds flagged %v", v)
	}

	// A stale partial round far behind the frontier is pruned.
	if err := r.Handle(report(t, 0, 10, []int64{0, 0})); err != nil {
		t.Fatal(err)
	}
	if err := r.Handle(report(t, 0, 10+rootMaxOpenRounds+1, []int64{0, 0})); err != nil {
		t.Fatal(err)
	}
	if n := r.openRounds(); n != 1 {
		t.Fatalf("openRounds = %d after prune, want 1", n)
	}
}

// TestRootRejectsReplayOfVerifiedRound: once a round verifies, a late
// or replayed report for its seq must not open a fresh round. Before
// the fix the root dropped verified rounds, so replaying isp0's report
// plus a tampered isp1 report "verified" round 0 a second time, raised
// RoundsVerified and flagged a pair that never cheated.
func TestRootRejectsReplayOfVerifiedRound(t *testing.T) {
	r := newTestRoot(t, []int{0, 1}, nil)
	if err := r.Handle(report(t, 0, 0, []int64{0, 1})); err != nil {
		t.Fatal(err)
	}
	if err := r.Handle(report(t, 1, 0, []int64{-1, 0})); err != nil {
		t.Fatal(err)
	}
	if got := r.RoundsVerified(); got != 1 {
		t.Fatalf("RoundsVerified = %d, want 1", got)
	}
	if err := r.Handle(report(t, 0, 0, []int64{0, 1})); !errors.Is(err, ErrReplay) {
		t.Fatalf("replayed isp0 report = %v, want ErrReplay", err)
	}
	if err := r.Handle(report(t, 1, 0, []int64{-7, 0})); !errors.Is(err, ErrReplay) {
		t.Fatalf("tampered isp1 report = %v, want ErrReplay", err)
	}
	if got := r.RoundsVerified(); got != 1 {
		t.Fatalf("RoundsVerified = %d after replay, want 1", got)
	}
	if v := r.Violations(); len(v) != 0 {
		t.Fatalf("replay flagged %v", v)
	}
	if st := r.Stats(); st.Replays != 2 || st.Reports != 2 {
		t.Fatalf("stats = %+v, want 2 replays and 2 reports", st)
	}

	// Once later rounds verify past the window the verified mark for
	// seq 0 is gone, but a report that far behind is stale and still
	// rejected without opening a round.
	far := uint64(rootMaxOpenRounds + 1)
	for seq := uint64(1); seq <= far; seq++ {
		if err := r.Handle(report(t, 0, seq, []int64{0, 0})); err != nil {
			t.Fatal(err)
		}
		if err := r.Handle(report(t, 1, seq, []int64{0, 0})); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Handle(report(t, 1, 0, []int64{-7, 0})); !errors.Is(err, ErrReplay) {
		t.Fatalf("stale report = %v, want ErrReplay", err)
	}
	if st := r.Stats(); st.Replays != 3 || st.Rounds != int64(far)+1 {
		t.Fatalf("stats = %+v, want 3 replays and %d rounds", st, far+1)
	}
	if n := r.openRounds(); n != 0 {
		t.Fatalf("openRounds = %d after stale report, want 0", n)
	}
}

// TestRootFarAheadReportDoesNotStall: one report with a far-future seq
// (a forged envelope on the root's port, or a leaf with a wrong seq)
// must not push genuine rounds out of the window, neither before the
// first verified round nor after it.
func TestRootFarAheadReportDoesNotStall(t *testing.T) {
	r := newTestRoot(t, []int{0, 1}, nil)
	const forged = uint64(1) << 40
	if err := r.Handle(report(t, 1, forged, []int64{5, 0})); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq < 2; seq++ {
		if err := r.Handle(report(t, 0, seq, []int64{0, 1})); err != nil {
			t.Fatalf("round %d isp0: %v", seq, err)
		}
		if err := r.Handle(report(t, 1, seq, []int64{-1, 0})); err != nil {
			t.Fatalf("round %d isp1: %v", seq, err)
		}
		if seq == 0 {
			if err := r.Handle(report(t, 0, forged+1, []int64{0, 3})); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := r.RoundsVerified(); got != 2 {
		t.Fatalf("RoundsVerified = %d, want 2", got)
	}
	if v := r.Violations(); len(v) != 0 {
		t.Fatalf("genuine rounds flagged %v", v)
	}
	if st := r.Stats(); st.Replays != 0 {
		t.Fatalf("stats = %+v, want no replays", st)
	}
}
