package bank

import (
	"errors"
	"sync"
	"testing"

	"zmail/internal/crypto"
	"zmail/internal/wire"
)

func newHierarchy(t *testing.T, n, regions int, compliant []bool) (*Hierarchy, *fakeTransport) {
	t.Helper()
	ft := newFake()
	h, err := NewHierarchy(HierarchyConfig{
		NumISPs:        n,
		Regions:        regions,
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
			if err := h.Enroll(i, crypto.Null{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return h, ft
}

func TestHierarchyConfigValidation(t *testing.T) {
	base := HierarchyConfig{NumISPs: 4, Regions: 2, Transport: newFake(), OwnSealer: crypto.Null{}}
	if _, err := NewHierarchy(base); err != nil {
		t.Fatalf("minimal config: %v", err)
	}
	bad := base
	bad.Regions = 0
	if _, err := NewHierarchy(bad); err == nil {
		t.Error("zero regions accepted")
	}
	bad = base
	bad.Assign = []int{0, 1}
	if _, err := NewHierarchy(bad); err == nil {
		t.Error("short assignment accepted")
	}
	bad = base
	bad.Assign = []int{0, 1, 2, 5}
	if _, err := NewHierarchy(bad); err == nil {
		t.Error("out-of-range region accepted")
	}
	bad = base
	bad.Compliant = []bool{true, false, true, false}
	if _, err := NewHierarchy(bad); err == nil {
		t.Error("region without compliant ISPs accepted")
	}

	leaf, _ := newBank(t, 2, nil)
	if _, err := ComposeHierarchy(nil, nil, []int{0, 0}); err == nil {
		t.Error("composition without leaves accepted")
	}
	if _, err := ComposeHierarchy([]*Bank{leaf, leaf}, nil, []int{0, 1}); err == nil {
		t.Error("two leaves without a root accepted")
	}
	if _, err := ComposeHierarchy([]*Bank{leaf}, nil, []int{0, 1}); err == nil {
		t.Error("assignment past the last leaf accepted")
	}
}

func TestHierarchyRoundRobinAssignment(t *testing.T) {
	h, _ := newHierarchy(t, 5, 2, nil)
	want := []int{0, 1, 0, 1, 0}
	for i, r := range want {
		if h.Region(i) != r {
			t.Fatalf("Region(%d) = %d, want %d", i, h.Region(i), r)
		}
	}
}

func TestHierarchyBuySellRegional(t *testing.T) {
	h, ft := newHierarchy(t, 4, 2, nil)
	// isp2 (region 0) buys; isp3 (region 1) sells.
	if err := h.Handle(buyEnv(2, 300, 1)); err != nil {
		t.Fatal(err)
	}
	if err := h.Handle(sellEnv(3, 100, 2)); err != nil {
		t.Fatal(err)
	}
	a2, _ := h.Account(2)
	a3, _ := h.Account(3)
	if a2 != 700 || a3 != 1100 {
		t.Fatalf("accounts = %v/%v", a2, a3)
	}
	if h.Outstanding() != 200 {
		t.Fatalf("outstanding = %d", h.Outstanding())
	}
	if len(ft.out[2]) != 1 || ft.out[2][0].Kind != wire.KindBuyReply {
		t.Fatalf("buy reply = %+v", ft.out[2])
	}
	// Each trade was served by the ISP's own leaf; the root saw none.
	if st := h.leaves[0].Stats(); st.BuysAccepted != 1 || st.Sells != 0 {
		t.Fatalf("region 0 leaf stats = %+v", st)
	}
	if st := h.leaves[1].Stats(); st.BuysAccepted != 0 || st.Sells != 1 {
		t.Fatalf("region 1 leaf stats = %+v", st)
	}
	if st := h.Root().Stats(); st != (RootStats{}) {
		t.Fatalf("root saw trade traffic: %+v", st)
	}
	// Replay at the same region rejected.
	if err := h.Handle(buyEnv(2, 300, 1)); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay: %v", err)
	}
}

// honest reports for 4 ISPs in 2 regions with known cross flows.
func hierarchyHonestReports() map[int][]int64 {
	// Flows (net): 0→1: 5 (cross), 0→2: 3 (intra region 0),
	// 1→3: 2 (intra region 1), 2→3: 7 (cross).
	return map[int][]int64{
		0: {0, 5, 3, 0},
		1: {-5, 0, 0, 2},
		2: {-3, 0, 0, 7},
		3: {0, -2, -7, 0},
	}
}

func TestHierarchyHonestRound(t *testing.T) {
	h, ft := newHierarchy(t, 4, 2, nil)
	if err := h.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	if h.RoundComplete() {
		t.Fatal("complete before replies")
	}
	if err := h.StartSnapshot(); !errors.Is(err, ErrRoundActive) {
		t.Fatalf("double start: %v", err)
	}
	for i := 0; i < 4; i++ {
		if len(ft.out[i]) != 1 || ft.out[i][0].Kind != wire.KindRequest {
			t.Fatalf("isp[%d] requests = %+v", i, ft.out[i])
		}
	}
	for i, credits := range hierarchyHonestReports() {
		if err := h.Handle(reportEnv(int32(i), 0, credits)); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
	}
	if !h.RoundComplete() {
		t.Fatal("round incomplete")
	}
	if got := h.Violations(); len(got) != 0 {
		t.Fatalf("honest round flagged %v", got)
	}
	// Every report reached the root, which checked only the four
	// cross-region pairs (0,1) (0,3) (1,2) (2,3).
	st := h.Root().Stats()
	if st.Rounds != 1 || st.Reports != 4 || st.CrossPairs != 4 {
		t.Fatalf("root stats = %+v", st)
	}
	for r, leaf := range h.leaves {
		if leaf.Stats().Rounds != 1 {
			t.Fatalf("leaf %d rounds = %d", r, leaf.Stats().Rounds)
		}
	}
}

// TestHierarchyStartRefusedWhileRegionGathering: a new round does not
// start anywhere until every region finished the last one, so the
// leaves never drift apart in sequence number.
func TestHierarchyStartRefusedWhileRegionGathering(t *testing.T) {
	h, _ := newHierarchy(t, 4, 2, nil)
	if err := h.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	reports := hierarchyHonestReports()
	for _, i := range []int{0, 2} { // region 0 completes, region 1 does not
		if err := h.Handle(reportEnv(int32(i), 0, reports[i])); err != nil {
			t.Fatal(err)
		}
	}
	if !h.leaves[0].RoundComplete() || h.RoundComplete() {
		t.Fatal("want region 0 complete and the federation round open")
	}
	if err := h.StartSnapshot(); !errors.Is(err, ErrRoundActive) {
		t.Fatalf("start with region 1 gathering: %v", err)
	}
	if !h.leaves[0].RoundComplete() {
		t.Fatal("refused start still opened a round at region 0")
	}
	for _, i := range []int{1, 3} {
		if err := h.Handle(reportEnv(int32(i), 0, reports[i])); err != nil {
			t.Fatal(err)
		}
	}
	if !h.RoundComplete() || h.Root().RoundsVerified() != 1 {
		t.Fatal("round 0 did not verify at the root")
	}
	if err := h.StartSnapshot(); err != nil {
		t.Fatalf("next round: %v", err)
	}
}

// TestHierarchyStartRefusedWhileRegionUnenrolled: an ISP not yet
// enrolled at its region refuses the start before any leaf opens a
// round, so the leaves stay at the same seq and verify together once
// it enrols.
func TestHierarchyStartRefusedWhileRegionUnenrolled(t *testing.T) {
	h, err := NewHierarchy(HierarchyConfig{NumISPs: 4, Regions: 2, Transport: newFake(), OwnSealer: crypto.Null{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 2} { // isp3 (region 1) not enrolled
		if err := h.Enroll(i, crypto.Null{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.StartSnapshot(); !errors.Is(err, ErrNotEnrolled) {
		t.Fatalf("start with isp3 unenrolled: %v", err)
	}
	for r, leaf := range h.leaves {
		if !leaf.RoundComplete() {
			t.Fatalf("refused start opened a round at region %d", r)
		}
	}
	if err := h.Enroll(3, crypto.Null{}); err != nil {
		t.Fatal(err)
	}
	if err := h.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	for i, credits := range hierarchyHonestReports() {
		if err := h.Handle(reportEnv(int32(i), 0, credits)); err != nil {
			t.Fatalf("isp%d seq 0: %v", i, err)
		}
	}
	if !h.RoundComplete() || h.Root().RoundsVerified() != 1 {
		t.Fatal("round 0 did not verify at the root")
	}
}

func TestHierarchyFlagsCrossRegionCheater(t *testing.T) {
	h, _ := newHierarchy(t, 4, 2, nil)
	if err := h.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	reports := hierarchyHonestReports()
	// isp1 (region 1) understates what it owes isp0 (region 0) — a
	// cross-region cheat — and also cheats isp3 (intra-region).
	reports[1] = []int64{-2, 0, 0, 0}
	for i, credits := range reports {
		_ = h.Handle(reportEnv(int32(i), 0, credits))
	}
	flagged := map[[2]int]bool{}
	for _, v := range h.Violations() {
		flagged[[2]int{v.I, v.J}] = true
	}
	if rv := h.Root().Violations(); len(rv) != 1 || rv[0].I != 0 || rv[0].J != 1 {
		t.Fatalf("root flagged %v, want the cross-region pair isp0/isp1", rv)
	}
	if lv := h.leaves[1].Violations(); len(lv) != 1 || lv[0].I != 1 || lv[0].J != 3 {
		t.Fatalf("region 1 leaf flagged %v, want the intra-region pair isp1/isp3", lv)
	}
	if flagged[[2]int{0, 2}] || flagged[[2]int{2, 3}] {
		t.Fatalf("honest pairs flagged: %v", h.Violations())
	}
}

// TestHierarchyMatchesCentralBank: on identical reports, the hierarchy
// and the central bank flag exactly the same pairs.
func TestHierarchyMatchesCentralBank(t *testing.T) {
	reports := hierarchyHonestReports()
	reports[2] = []int64{-3, 0, 0, 4} // isp2 understates its 2→3 flow

	central, _ := newBank(t, 4, nil)
	_ = central.StartSnapshot()
	for i, credits := range reports {
		_ = central.Handle(reportEnv(int32(i), 0, credits))
	}

	hier, _ := newHierarchy(t, 4, 2, nil)
	_ = hier.StartSnapshot()
	for i, credits := range reports {
		_ = hier.Handle(reportEnv(int32(i), 0, credits))
	}

	pairSet := func(vs []Violation) map[[2]int]bool {
		out := map[[2]int]bool{}
		for _, v := range vs {
			out[[2]int{v.I, v.J}] = true
		}
		return out
	}
	cp, hp := pairSet(central.Violations()), pairSet(hier.Violations())
	if len(cp) != len(hp) {
		t.Fatalf("central flagged %v, hierarchy flagged %v", central.Violations(), hier.Violations())
	}
	for p := range cp {
		if !hp[p] {
			t.Fatalf("hierarchy missed pair %v", p)
		}
	}
}

func TestHierarchyStaleAndDuplicateReports(t *testing.T) {
	h, _ := newHierarchy(t, 2, 2, nil)
	_ = h.StartSnapshot()
	if err := h.Handle(reportEnv(0, 5, []int64{0, 0})); !errors.Is(err, ErrReplay) {
		t.Fatalf("wrong seq: %v", err)
	}
	if err := h.Handle(reportEnv(0, 0, []int64{0, 1})); err != nil {
		t.Fatal(err)
	}
	if err := h.Handle(reportEnv(0, 0, []int64{0, 9})); !errors.Is(err, ErrReplay) {
		t.Fatalf("duplicate: %v", err)
	}
	if err := h.Handle(reportEnv(1, 0, []int64{-1, 0})); err != nil {
		t.Fatal(err)
	}
	if !h.RoundComplete() || len(h.Violations()) != 0 {
		t.Fatalf("round state: complete=%v violations=%v", h.RoundComplete(), h.Violations())
	}
	// A tampered replay of the verified round stops at the leaf and
	// never reaches the root.
	if err := h.Handle(reportEnv(1, 0, []int64{-7, 0})); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay after verify: %v", err)
	}
	if st := h.Root().Stats(); st.Rounds != 1 || st.Reports != 2 || len(h.Violations()) != 0 {
		t.Fatalf("replay reached the root: %+v, violations %v", st, h.Violations())
	}
}

func TestHierarchyNonCompliantSkipped(t *testing.T) {
	h, ft := newHierarchy(t, 4, 2, []bool{true, false, true, true})
	if err := h.Handle(buyEnv(1, 10, 1)); !errors.Is(err, ErrUnknownISP) {
		t.Fatalf("non-compliant buy: %v", err)
	}
	_ = h.StartSnapshot()
	if len(ft.out[1]) != 0 {
		t.Fatal("request sent to non-compliant ISP")
	}
	_ = h.Handle(reportEnv(0, 0, []int64{0, 0, 0, 0}))
	_ = h.Handle(reportEnv(2, 0, []int64{0, 0, 0, 0}))
	_ = h.Handle(reportEnv(3, 0, []int64{0, 0, 0, 0}))
	if !h.RoundComplete() {
		t.Fatal("round incomplete without non-compliant reply")
	}
}

func TestHierarchySingleRegionDegeneratesToCentral(t *testing.T) {
	h, _ := newHierarchy(t, 3, 1, nil)
	_ = h.StartSnapshot()
	_ = h.Handle(reportEnv(0, 0, []int64{0, 5, 0}))
	_ = h.Handle(reportEnv(1, 0, []int64{-4, 0, 0})) // mismatch
	_ = h.Handle(reportEnv(2, 0, []int64{0, 0, 0}))
	if len(h.Violations()) != 1 {
		t.Fatalf("violations = %v", h.Violations())
	}
	if h.Root() != nil || !h.RoundComplete() {
		t.Fatalf("one region: root=%v complete=%v, want no root and a verified round", h.Root(), h.RoundComplete())
	}
}

// TestHierarchyRegionConcurrentWithRounds: Region reads the immutable
// assignment without a lock while rounds run. Hammer it against
// concurrent audit rounds under -race (make race / make cluster).
func TestHierarchyRegionConcurrentWithRounds(t *testing.T) {
	h, _ := newHierarchy(t, 6, 3, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < 6; i++ {
					if r := h.Region(i); r < 0 || r >= 3 {
						t.Errorf("Region(%d) = %d out of range", i, r)
						return
					}
				}
			}
		}()
	}
	if err := h.StartSnapshot(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 200; round++ {
		if _, err := h.Account(round % 6); err != nil {
			t.Fatal(err)
		}
		_ = h.Violations()
		_ = h.Outstanding()
	}
	close(stop)
	wg.Wait()
}
