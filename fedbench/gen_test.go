package main

import (
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"zmail/internal/mail"
)

// fakeSender answers every send at once, except the ones stall picks.
type fakeSender struct {
	isp   int
	sends *atomic.Int64
	stall func(isp int, n int64) time.Duration
}

func (f *fakeSender) Send(mail.Address, []mail.Address, *mail.Message) error {
	n := f.sends.Add(1)
	if f.stall != nil {
		time.Sleep(f.stall(f.isp, n))
	}
	return nil
}
func (f *fakeSender) Reset() error { return nil }
func (f *fakeSender) Close() error { return nil }

func fakeDialer(stall func(isp int, n int64) time.Duration) (dialer, *atomic.Int64) {
	var sends atomic.Int64
	return func(isp int) (sender, error) {
		return &fakeSender{isp: isp, sends: &sends, stall: stall}, nil
	}, &sends
}

func testMix() *mix {
	return &mix{
		domains:    []string{"a.test", "b.test"},
		users:      [][]string{{"u0", "u1", "u2"}, {"u0", "u1", "u2"}},
		zipfS:      1.2,
		remoteFrac: 0.5,
		listFrac:   0.1,
		listSize:   2,
	}
}

func TestOfferedIsRateTimesDuration(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		dur  time.Duration
	}{
		{100, 500 * time.Millisecond},
		{333.3, 1300 * time.Millisecond},
		{1000, time.Second},
	} {
		n := offered(tc.rate, tc.dur)
		if want := tc.rate * tc.dur.Seconds(); math.Abs(float64(n)-want) > 1 {
			t.Errorf("rate %v for %v: %d arrivals, want %v ±1", tc.rate, tc.dur, n, want)
		}
		plan := testMix().schedule(rand.New(rand.NewSource(1)), tc.rate, n, "t")
		if last := plan[len(plan)-1].due; last >= tc.dur {
			t.Errorf("rate %v: last arrival due at %v, past the %v window", tc.rate, last, tc.dur)
		}
		dial, sends := fakeDialer(nil)
		res := runOpenLoop(plan, 2, 1, dial, nil, 0)
		if res.offered != n || res.accepted != n || int(sends.Load()) != n || res.failed != 0 || res.shed != 0 {
			t.Errorf("rate %v: offered %d accepted %d sent %d failed %d shed %d, want all %d",
				tc.rate, res.offered, res.accepted, sends.Load(), res.failed, res.shed, n)
		}
		// Sends follow the schedule: the run lasts about as long as
		// the offer window, not as long as the target takes.
		if res.elapsed < tc.dur-50*time.Millisecond || res.elapsed > tc.dur+250*time.Millisecond {
			t.Errorf("rate %v: run took %v for a %v schedule", tc.rate, res.elapsed, tc.dur)
		}
	}
}

func TestStalledTargetShowsAsLatenessNotFewerOffers(t *testing.T) {
	const stall = 300 * time.Millisecond
	// ISP 0's first send hangs; ISP 1 is healthy.
	var stalled atomic.Bool
	dial, _ := fakeDialer(func(isp int, _ int64) time.Duration {
		if isp == 0 && !stalled.Swap(true) {
			return stall
		}
		return 0
	})
	m := testMix()
	m.remoteFrac = 0
	plan := m.schedule(rand.New(rand.NewSource(2)), 200, offered(200, time.Second), "s")
	res := runOpenLoop(plan, 2, 1, dial, nil, 0)
	if res.offered != 200 || res.accepted != 200 || res.shed != 0 {
		t.Fatalf("offered %d accepted %d shed %d: a stall must not remove offers", res.offered, res.accepted, res.shed)
	}
	// The stalled send and the ISP 0 sends queued behind it are late
	// and slow; latency, measured from due time, includes the wait.
	var late, slow int
	for k, a := range plan {
		if a.src != 0 {
			if res.latenessMs[k] > ms(stall)/2 {
				t.Errorf("arrival %d to the healthy ISP ran %.1f ms late", k, res.latenessMs[k])
			}
			continue
		}
		if res.latenessMs[k] > ms(stall)/2 {
			late++
		}
		if res.latencyMs[k] >= ms(stall)/2 {
			slow++
		}
	}
	if late < 5 || slow < late {
		t.Errorf("after a %v stall: %d sends late, %d slow; want the backlog to show", stall, late, slow)
	}
	if quantile(res.latenessMs, 1) < ms(stall)*0.8 {
		t.Errorf("max lateness %.1f ms, want about the %v stall", quantile(res.latenessMs, 1), stall)
	}
}

func TestShedOnlyWhenAsked(t *testing.T) {
	stallFirst := func(isp int, n int64) time.Duration {
		if n == 1 {
			return 200 * time.Millisecond
		}
		return 0
	}
	plan := testMix().schedule(rand.New(rand.NewSource(3)), 500, 250, "x")
	dial, _ := fakeDialer(stallFirst)
	if res := runOpenLoop(plan, 2, 1, dial, nil, 0); res.shed != 0 || res.accepted != len(plan) {
		t.Errorf("shed disabled: shed %d accepted %d of %d", res.shed, res.accepted, len(plan))
	}
	dial, _ = fakeDialer(stallFirst)
	res := runOpenLoop(plan, 2, 1, dial, nil, 50*time.Millisecond)
	if res.shed == 0 || res.shed+res.accepted != len(plan) {
		t.Errorf("shed at 50ms: shed %d accepted %d of %d", res.shed, res.accepted, len(plan))
	}
	if !math.IsInf(quantile(res.latencyMs, 0.99), 1) {
		t.Errorf("shed sends must miss every latency limit, p99 = %v", quantile(res.latencyMs, 0.99))
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	a := testMix().schedule(rand.New(rand.NewSource(7)), 500, 300, "a")
	b := testMix().schedule(rand.New(rand.NewSource(7)), 500, 300, "a")
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different arrivals")
	}
	c := testMix().schedule(rand.New(rand.NewSource(8)), 500, 300, "a")
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same arrivals")
	}
	for _, arr := range a {
		if len(arr.rcpts) == 0 || containsAddr(arr.rcpts, arr.from) {
			t.Fatalf("bad arrival %+v", arr)
		}
	}
}

func TestQuantileIsExact(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 50.5}, {0.99, 99.01}, {1, 100}} {
		if got := quantile(s, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("q%v = %v, want %v", tc.q, got, tc.want)
		}
	}
	if s[0] != 100 {
		t.Error("quantile reordered its input")
	}
	if got := quantile([]float64{1, 2, math.Inf(1)}, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 over a refused send = %v, want +Inf", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}
