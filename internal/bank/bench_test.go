package bank

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"zmail/internal/crypto"
	"zmail/internal/wire"
)

// antisymmetricReports builds a consistent set of n credit arrays.
func antisymmetricReports(n int, seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	reports := make([][]int64, n)
	for i := range reports {
		reports[i] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.Int63n(200) - 100
			reports[i][j] = v
			reports[j][i] = -v
		}
	}
	return reports
}

// BenchmarkCentralAuditRound measures one full request-gather-verify
// round at the central bank for growing federations — the periodic
// settlement cost the paper contrasts with per-message schemes.
func BenchmarkCentralAuditRound(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("isps=%d", n), func(b *testing.B) {
			ft := newFake()
			bk, err := New(Config{NumISPs: n, InitialAccount: 1 << 40, Transport: ft, OwnSealer: crypto.Null{}})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				_ = bk.Enroll(i, crypto.Null{})
			}
			reports := antisymmetricReports(n, 1)
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				if err := bk.StartSnapshot(); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if err := bk.Handle(reportEnv(int32(i), uint64(k), reports[i])); err != nil {
						b.Fatal(err)
					}
				}
				if !bk.RoundComplete() {
					b.Fatal("round incomplete")
				}
			}
		})
	}
}

// BenchmarkHierarchyAuditRound is the §5 ablation partner: the same
// rounds through a 4-region hierarchy of leaf Banks plus a Root. The
// point is the *distribution*: each leaf verifies only its region's
// pairs and the root only the cross-region ones, which the Root stats
// assertions in hierarchy_test.go capture.
func BenchmarkHierarchyAuditRound(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("isps=%d", n), func(b *testing.B) {
			ft := newFake()
			h, err := NewHierarchy(HierarchyConfig{
				NumISPs: n, Regions: 4, InitialAccount: 1 << 40,
				Transport: ft, OwnSealer: crypto.Null{},
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				_ = h.Enroll(i, crypto.Null{})
			}
			reports := antisymmetricReports(n, 1)
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				if err := h.StartSnapshot(); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if err := h.Handle(reportEnv(int32(i), uint64(k), reports[i])); err != nil {
						b.Fatal(err)
					}
				}
				if !h.RoundComplete() {
					b.Fatal("round incomplete")
				}
			}
		})
	}
}

// BenchmarkAuditWithSettlement isolates the settlement add-on cost.
func BenchmarkAuditWithSettlement(b *testing.B) {
	const n = 32
	ft := newFake()
	bk, err := New(Config{
		NumISPs: n, InitialAccount: 1 << 40, Transport: ft,
		OwnSealer: crypto.Null{}, SettleOnVerify: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_ = bk.Enroll(i, crypto.Null{})
	}
	reports := antisymmetricReports(n, 1)
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		if err := bk.StartSnapshot(); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := bk.Handle(reportEnv(int32(i), uint64(k), reports[i])); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBuyHandling is the per-trade control-plane cost.
func BenchmarkBuyHandling(b *testing.B) {
	ft := newFake()
	bk, err := New(Config{NumISPs: 1, InitialAccount: 1 << 60, Transport: ft, OwnSealer: crypto.Null{}})
	if err != nil {
		b.Fatal(err)
	}
	_ = bk.Enroll(0, crypto.Null{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bk.Handle(buyEnv(0, 10, uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// sinkTransport discards replies; unlike the recording fake it is safe
// for concurrent SendISP calls.
type sinkTransport struct{}

func (sinkTransport) SendISP(int, *wire.Envelope) {}

// BenchmarkBuyHandlingParallel hammers Handle from GOMAXPROCS
// goroutines, each ISP trading concurrently with globally unique
// nonces. The bank keeps one mutex by design (it is off the per-message
// path); this bench quantifies what that serialization costs so the
// decision stays an informed one.
func BenchmarkBuyHandlingParallel(b *testing.B) {
	const isps = 8
	bk, err := New(Config{NumISPs: isps, InitialAccount: 1 << 60, Transport: sinkTransport{}, OwnSealer: crypto.Null{}})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < isps; i++ {
		_ = bk.Enroll(i, crypto.Null{})
	}
	var nonce atomic.Uint64
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		from := int32(worker.Add(1)-1) % isps
		for pb.Next() {
			if err := bk.Handle(buyEnv(from, 10, nonce.Add(1))); err != nil {
				b.Fatal(err)
			}
		}
	})
}
