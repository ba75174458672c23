package bank

import (
	"errors"
	"fmt"
	"sync/atomic"

	"zmail/internal/crypto"
	"zmail/internal/money"
	"zmail/internal/wire"
)

// Hierarchy implements the paper's §5 "Bank Setup" extension: "the role
// of the bank in the Zmail protocol can be implemented as a set of
// distributed banks or a hierarchy of banks."
//
// It is a thin composition of the deployed parts, not a bank of its
// own: one leaf Bank per region, whose Compliant mask admits only that
// region's ISPs, plus one Root. Each leaf owns its ISPs' real-money
// accounts, serves their buy/sell traffic and verifies intra-region
// pairs; every credit report a leaf accepts is forwarded to the Root,
// which verifies the cross-region pairs. internal/cluster and
// `zbank -role leaf|root` run exactly these parts over TCP and use a
// Hierarchy for the same round bookkeeping.
//
// The root never sees buy/sell traffic and checks only cross-region
// pairs. Detection is unchanged: experiment E17 shows the hierarchy
// flags exactly the central bank's pairs on identical traffic.
//
// Hierarchy is a drop-in replacement for Bank at the protocol surface:
// Handle, StartSnapshot, RoundComplete, Violations and Enroll have the
// same semantics, so the same ISP engines (which have no idea how many
// banks exist) run against either.
type Hierarchy struct {
	assign  []int // isp index → region index; immutable
	leaves  []*Bank
	root    *Root        // nil with a single region
	started atomic.Int64 // audit rounds started
}

// HierarchyConfig configures a Hierarchy.
type HierarchyConfig struct {
	// NumISPs is the federation size.
	NumISPs int
	// Regions is the number of regional banks; ISPs are assigned
	// round-robin unless Assign overrides.
	Regions int
	// Assign optionally maps each ISP index to a region.
	Assign []int
	// Compliant marks participating ISPs; nil means all.
	Compliant []bool
	// InitialAccount seeds each compliant ISP's regional account.
	InitialAccount money.Penny
	// Transport carries outbound control traffic (required).
	Transport Transport
	// OwnSealer opens inbound envelopes; leaves and root share the
	// bank's key material (the regions are organs of one distributed
	// bank), which matches the paper's single-sentence sketch.
	OwnSealer crypto.Sealer
}

// NewHierarchy validates the config and builds the bank tree in
// process: one leaf Bank per region and, with more than one region, a
// Root over them.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if cfg.NumISPs <= 0 || cfg.Regions <= 0 {
		return nil, errors.New("bank: NumISPs and Regions must be positive")
	}
	if cfg.Compliant != nil && len(cfg.Compliant) != cfg.NumISPs {
		return nil, fmt.Errorf("bank: Compliant has %d entries for %d ISPs", len(cfg.Compliant), cfg.NumISPs)
	}
	assign := cfg.Assign
	if assign == nil {
		assign = make([]int, cfg.NumISPs)
		for i := range assign {
			assign[i] = i % cfg.Regions
		}
	}
	if len(assign) != cfg.NumISPs {
		return nil, fmt.Errorf("bank: Assign has %d entries for %d ISPs", len(assign), cfg.NumISPs)
	}
	leaves := make([]*Bank, cfg.Regions)
	for r := range leaves {
		mask := make([]bool, cfg.NumISPs)
		serves := false
		for i, a := range assign {
			mask[i] = a == r && (cfg.Compliant == nil || cfg.Compliant[i])
			serves = serves || mask[i]
		}
		if !serves {
			return nil, fmt.Errorf("bank: region %d has no compliant ISPs", r)
		}
		leaf, err := New(Config{
			NumISPs:        cfg.NumISPs,
			Compliant:      mask,
			InitialAccount: cfg.InitialAccount,
			Transport:      cfg.Transport,
			OwnSealer:      cfg.OwnSealer,
		})
		if err != nil {
			return nil, err
		}
		leaves[r] = leaf
	}
	var root *Root
	if cfg.Regions > 1 {
		var err error
		root, err = NewRoot(RootConfig{
			NumISPs:   cfg.NumISPs,
			Assign:    assign,
			Compliant: cfg.Compliant,
			OwnSealer: cfg.OwnSealer,
		})
		if err != nil {
			return nil, err
		}
	}
	return ComposeHierarchy(leaves, root, assign)
}

// ComposeHierarchy assembles a Hierarchy over already running parts:
// leaves[r] serves the ISPs with assign[i] == r, and root (nil with a
// single leaf) receives every report a leaf accepts. internal/cluster
// composes its TCP leaf daemons this way; NewHierarchy builds in-process
// parts and calls it.
func ComposeHierarchy(leaves []*Bank, root *Root, assign []int) (*Hierarchy, error) {
	if len(leaves) == 0 {
		return nil, errors.New("bank: a hierarchy needs at least one leaf")
	}
	if root == nil && len(leaves) > 1 {
		return nil, fmt.Errorf("bank: %d leaves without a root", len(leaves))
	}
	for i, r := range assign {
		if r < 0 || r >= len(leaves) {
			return nil, fmt.Errorf("bank: isp[%d] assigned to region %d of %d", i, r, len(leaves))
		}
	}
	return &Hierarchy{
		assign: append([]int(nil), assign...),
		leaves: append([]*Bank(nil), leaves...),
		root:   root,
	}, nil
}

// leaf returns the regional bank serving ISP index.
func (h *Hierarchy) leaf(index int) (*Bank, error) {
	if index < 0 || index >= len(h.assign) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownISP, index)
	}
	return h.leaves[h.assign[index]], nil
}

// Enroll registers an ISP's reply sealer at its regional bank.
func (h *Hierarchy) Enroll(index int, sealer crypto.Sealer) error {
	leaf, err := h.leaf(index)
	if err != nil {
		return err
	}
	return leaf.Enroll(index, sealer)
}

// Account returns the ISP's balance at its regional bank.
func (h *Hierarchy) Account(index int) (money.Penny, error) {
	leaf, err := h.leaf(index)
	if err != nil {
		return 0, err
	}
	return leaf.Account(index)
}

// Region reports which regional bank serves an ISP.
func (h *Hierarchy) Region(index int) int { return h.assign[index] }

// Root returns the cross-region aggregator, nil with a single region.
func (h *Hierarchy) Root() *Root { return h.root }

// Handle routes one inbound envelope to the sender's regional bank and
// forwards every credit report the leaf accepted to the root — the
// contract of core.BankServer.SetForward.
func (h *Hierarchy) Handle(env *wire.Envelope) error {
	leaf, err := h.leaf(int(env.From))
	if err != nil {
		return err
	}
	if err := leaf.Handle(env); err != nil {
		return err
	}
	if env.Kind == wire.KindReply && h.root != nil {
		return h.root.Handle(env)
	}
	return nil
}

// StartSnapshot begins one federation-wide audit round: every leaf
// requests reports from its ISPs. It first checks that no leaf would
// refuse (one still gathering, an ISP not enrolled), so a refused start
// leaves every leaf at the same sequence number, which the root uses to
// correlate their reports. A leaf can still fail after others started
// if sealing a request fails or the leaf is started concurrently from
// outside the Hierarchy; those leaves then run one round ahead.
func (h *Hierarchy) StartSnapshot() error {
	for r, leaf := range h.leaves {
		if err := leaf.snapshotReady(); err != nil {
			return fmt.Errorf("bank: region %d: %w", r, err)
		}
	}
	for r, leaf := range h.leaves {
		if err := leaf.StartSnapshot(); err != nil {
			return fmt.Errorf("bank: region %d: %w", r, err)
		}
	}
	h.started.Add(1)
	return nil
}

// RoundComplete reports whether every round started so far has fully
// verified: at every leaf and, with several regions, at the root.
func (h *Hierarchy) RoundComplete() bool {
	for _, leaf := range h.leaves {
		if !leaf.RoundComplete() {
			return false
		}
	}
	return h.root == nil || h.root.RoundsVerified() >= h.started.Load()
}

// Violations returns all flagged pairs: intra-region pairs from the
// leaves, then cross-region pairs from the root.
func (h *Hierarchy) Violations() []Violation {
	var out []Violation
	for _, leaf := range h.leaves {
		out = append(out, leaf.Violations()...)
	}
	if h.root != nil {
		out = append(out, h.root.Violations()...)
	}
	return out
}

// Outstanding reports net minted e-pennies across all regions.
func (h *Hierarchy) Outstanding() int64 {
	var total int64
	for _, leaf := range h.leaves {
		total += leaf.Outstanding()
	}
	return total
}
