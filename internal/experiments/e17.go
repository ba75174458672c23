package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"zmail/internal/bank"
	"zmail/internal/clock"
	"zmail/internal/crypto"
	"zmail/internal/isp"
	"zmail/internal/mail"
	"zmail/internal/metrics"
	"zmail/internal/wire"
)

// authority is the protocol surface shared by the central bank and the
// §5 hierarchy — the ISP engines cannot tell them apart.
type authority interface {
	Handle(env *wire.Envelope) error
	StartSnapshot() error
	RoundComplete() bool
	Enroll(index int, sealer crypto.Sealer) error
	Violations() []bank.Violation
}

// fedRig wires n engines directly to an authority with a deferred
// delivery queue (no simulated network: E17 compares verification
// outcomes, not timing).
type fedRig struct {
	engines  []*isp.Engine
	auth     authority
	clk      *clock.Virtual
	deferred []func()
}

// rigTransport adapts one engine to the rig.
type rigTransport struct {
	rig   *fedRig
	index int
}

func (t *rigTransport) SendMail(toIndex int, _ string, msg *mail.Message) {
	fromDomain := t.rig.engines[t.index].Domain()
	t.rig.deferred = append(t.rig.deferred, func() {
		_ = t.rig.engines[toIndex].ReceiveRemote(fromDomain, msg)
	})
}

func (t *rigTransport) SendBank(env *wire.Envelope) {
	t.rig.deferred = append(t.rig.deferred, func() { _ = t.rig.auth.Handle(env) })
}

func (t *rigTransport) DeliverLocal(string, *mail.Message) {}
func (t *rigTransport) DeliverAck(string, *mail.Message)   {}

// bankToRig routes authority replies back to the engines.
type bankToRig fedRig

func (b *bankToRig) SendISP(index int, env *wire.Envelope) {
	r := (*fedRig)(b)
	r.deferred = append(r.deferred, func() { _ = r.engines[index].HandleBank(env) })
}

func (r *fedRig) settle() {
	for len(r.deferred) > 0 {
		q := r.deferred
		r.deferred = nil
		for _, fn := range q {
			fn()
		}
		r.clk.RunUntilIdle()
	}
}

// newFedRig builds n engines against the authority produced by mk.
func newFedRig(n int, mk func(bank.Transport) (authority, error)) (*fedRig, error) {
	rig := &fedRig{clk: clock.NewVirtual(time.Unix(1_100_000_000, 0))}
	auth, err := mk((*bankToRig)(rig))
	if err != nil {
		return nil, err
	}
	rig.auth = auth
	domains := make([]string, n)
	for i := range domains {
		domains[i] = fmt.Sprintf("isp%d.example", i)
	}
	dir := isp.NewDirectory(domains, nil)
	for i := 0; i < n; i++ {
		eng, err := isp.New(isp.Config{
			Index: i, Domain: domains[i], Directory: dir,
			Clock: rig.clk, Transport: &rigTransport{rig: rig, index: i},
			MinAvail: 10, MaxAvail: 1 << 40, InitialAvail: 1 << 20,
			DefaultLimit: 1 << 40, FreezeDuration: time.Millisecond,
			BankSealer: crypto.Null{}, OwnSealer: crypto.Null{},
		})
		if err != nil {
			return nil, err
		}
		if err := auth.Enroll(i, crypto.Null{}); err != nil {
			return nil, err
		}
		for u := 0; u < 3; u++ {
			if err := eng.RegisterUser(fmt.Sprintf("u%d", u), 1000, 500, 0); err != nil {
				return nil, err
			}
		}
		rig.engines = append(rig.engines, eng)
	}
	return rig, nil
}

// driveTraffic runs a deterministic workload with a cheater and one
// audit round, returning the flagged pairs.
func driveTraffic(rig *fedRig, seed int64, cheater int) (map[[2]int]bool, error) {
	const n = 6
	rig.engines[cheater].SetCheat(true)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < 1200; k++ {
		from, to := rng.Intn(n), rng.Intn(n)
		msg := mail.NewMessage(
			mail.Address{Local: fmt.Sprintf("u%d", rng.Intn(3)), Domain: rig.engines[from].Domain()},
			mail.Address{Local: fmt.Sprintf("u%d", rng.Intn(3)), Domain: rig.engines[to].Domain()},
			"m", "b")
		if _, err := rig.engines[from].SubmitSync(msg); err != nil {
			return nil, err
		}
		rig.settle()
	}
	if err := rig.auth.StartSnapshot(); err != nil {
		return nil, err
	}
	rig.settle()
	if !rig.auth.RoundComplete() {
		return nil, fmt.Errorf("audit round incomplete")
	}
	flagged := map[[2]int]bool{}
	for _, v := range rig.auth.Violations() {
		flagged[[2]int{v.I, v.J}] = true
	}
	return flagged, nil
}

// E17 — multi-bank hierarchy (§5): "the role of the bank … can be
// implemented as a set of distributed banks or a hierarchy of banks."
// The hierarchy is the deployed one: region-masked leaf Banks plus a
// Root. It must flag exactly the pairs the central bank flags on
// identical traffic, while the root sees no buy/sell traffic, one
// forwarded report per ISP, and checks only the cross-region pairs.
func E17(seed int64) (*Result, error) {
	const n = 6
	const cheater = 3

	centralRig, err := newFedRig(n, func(tr bank.Transport) (authority, error) {
		return bank.New(bank.Config{
			NumISPs: n, InitialAccount: 1_000_000,
			Transport: tr, OwnSealer: crypto.Null{},
		})
	})
	if err != nil {
		return nil, err
	}
	centralFlags, err := driveTraffic(centralRig, seed, cheater)
	if err != nil {
		return nil, err
	}

	var hier *bank.Hierarchy
	hierRig, err := newFedRig(n, func(tr bank.Transport) (authority, error) {
		h, err := bank.NewHierarchy(bank.HierarchyConfig{
			NumISPs: n, Regions: 2, InitialAccount: 1_000_000,
			Transport: tr, OwnSealer: crypto.Null{},
		})
		hier = h
		return h, err
	})
	if err != nil {
		return nil, err
	}
	hierFlags, err := driveTraffic(hierRig, seed, cheater)
	if err != nil {
		return nil, err
	}

	table := metrics.NewTable("E17: central bank vs 2-region leaf banks + root, identical 1200-msg workload + cheater isp[3]",
		"property", "central bank", "hierarchy")
	identical := len(centralFlags) == len(hierFlags)
	for p := range centralFlags {
		if !hierFlags[p] {
			identical = false
		}
	}
	onlyCheater := true
	for p := range hierFlags {
		if p[0] != cheater && p[1] != cheater {
			onlyCheater = false
		}
	}
	pairs, crossPairs := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs++
			if hier.Region(i) != hier.Region(j) {
				crossPairs++
			}
		}
	}
	root := hier.Root()
	rs := root.Stats()
	crossCaught := len(root.Violations()) > 0 && onlyCheater
	table.AddRow("pairs flagged", len(centralFlags), len(hierFlags))
	table.AddRow("flag sets identical", "-", identical)
	table.AddRow("ISP reports at root", n, fmt.Sprintf("%d forwarded", rs.Reports))
	table.AddRow("pairs checked at root", pairs, fmt.Sprintf("%d cross-region", rs.CrossPairs))
	table.AddRow("buy/sell traffic at root", "all of it", "none (regional)")
	table.AddRow("cross-region cheats caught", "-", crossCaught)

	pass := identical && onlyCheater && len(hierFlags) > 0 && crossCaught &&
		rs.Reports == n && rs.CrossPairs == int64(crossPairs) && rs.Rounds == 1
	notes := fmt.Sprintf("hierarchy flagged the same %d cheater pairs; root load per audit: %d forwarded reports, %d of %d pairs checked, no buy/sell",
		len(hierFlags), rs.Reports, rs.CrossPairs, pairs)
	return &Result{
		ID:    "E17",
		Title: "a bank hierarchy preserves detection; its root checks only cross-region pairs",
		Table: table,
		Pass:  pass,
		Notes: notes,
	}, nil
}
