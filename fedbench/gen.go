package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"zmail/internal/mail"
	"zmail/internal/smtp"
)

// The open-loop generator. Arrivals are independent users, so the
// generator is open loop: every send has a due time fixed before the
// run starts, and a slow server faces a growing backlog instead of a
// client that politely waits. Latency is measured from the due time,
// so a stall is charged to every send queued behind it; lateness (how
// long after its due time a send actually began) shows the backlog
// itself. Nothing is ever dropped: a backlog delays sends, it never
// removes them from the offer.

// sender is one SMTP connection as the generator drives it.
type sender interface {
	Send(from mail.Address, rcpts []mail.Address, msg *mail.Message) error
	Reset() error
	Close() error
}

// dialer opens a fresh, greeted connection to ISP isp.
type dialer func(isp int) (sender, error)

// smtpDialer dials the ISPs' SMTP listeners at addrs.
func smtpDialer(addrs func(isp int) string) dialer {
	return func(isp int) (sender, error) {
		c, err := smtp.Dial(addrs(isp), 10*time.Second)
		if err != nil {
			return nil, err
		}
		if err := c.Hello("fedbench.test"); err != nil {
			_ = c.Close()
			return nil, fmt.Errorf("helo: %w", err)
		}
		return c, nil
	}
}

// arrival is one scheduled send.
type arrival struct {
	due   time.Duration // offset from the run's start
	src   int           // the sending user's ISP
	from  mail.Address
	rcpts []mail.Address
	msg   *mail.Message
}

// mix shapes who sends to whom.
type mix struct {
	domains    []string
	users      [][]string // registered users per ISP
	zipfS      float64    // sender skew; <= 1 selects uniform senders
	remoteFrac float64    // share of sends addressed to another ISP
	listFrac   float64    // share of sends with listSize recipients
	listSize   int
}

// schedule draws n arrivals spaced evenly at rate per second. The same
// rng state gives the same arrivals; tag keeps message IDs unique
// across the schedules of one run.
func (m *mix) schedule(rng *rand.Rand, rate float64, n int, tag string) []arrival {
	zipfs := make([]*rand.Zipf, len(m.users))
	if m.zipfS > 1 {
		for i, u := range m.users {
			zipfs[i] = rand.NewZipf(rng, m.zipfS, 1, uint64(len(u)-1))
		}
	}
	pick := func(isp int, z *rand.Zipf) string {
		users := m.users[isp]
		if z != nil {
			return users[z.Uint64()]
		}
		return users[rng.Intn(len(users))]
	}
	out := make([]arrival, n)
	for k := range out {
		src := rng.Intn(len(m.domains))
		dst := src
		if len(m.domains) > 1 && rng.Float64() < m.remoteFrac {
			dst = (src + 1 + rng.Intn(len(m.domains)-1)) % len(m.domains)
		}
		nRcpt := 1
		if rng.Float64() < m.listFrac {
			nRcpt = m.listSize
		}
		from := mail.Address{Local: pick(src, zipfs[src]), Domain: m.domains[src]}
		rcpts := make([]mail.Address, 0, nRcpt)
		for len(rcpts) < nRcpt {
			to := mail.Address{Local: pick(dst, nil), Domain: m.domains[dst]}
			if !containsAddr(rcpts, to) && to != from {
				rcpts = append(rcpts, to)
			}
		}
		msg := mail.NewMessage(from, rcpts[0], "fedbench "+tag, "open-loop benchmark message")
		msg.SetHeader(mail.HeaderMsgID, fmt.Sprintf("<%s.%d@fedbench.test>", tag, k))
		out[k] = arrival{
			due:   time.Duration(float64(k) / rate * float64(time.Second)),
			src:   src,
			from:  from,
			rcpts: rcpts,
			msg:   msg,
		}
	}
	return out
}

func containsAddr(list []mail.Address, a mail.Address) bool {
	for _, b := range list {
		if a == b {
			return true
		}
	}
	return false
}

// offered is the arrival count for rate × duration.
func offered(rate float64, d time.Duration) int {
	return int(math.Floor(rate * d.Seconds()))
}

// genResult is what one open-loop run observed.
type genResult struct {
	offered  int
	accepted int   // transactions answered 250
	rcpts    int64 // recipients across accepted transactions
	failed   int   // non-250 replies and transport failures
	shed     int   // arrivals a failing knee-search step gave up on
	dials    int   // connections the generator opened
	// Per offered arrival, in schedule order. A failed or shed
	// send's latency is +Inf: it misses every latency limit.
	latencyMs  []float64 // due time → final reply
	latenessMs []float64 // due time → send began
	sendUs     []float64 // the smtp.Client.Send span alone
	elapsed    time.Duration
}

// runOpenLoop offers arrivals against nISP ISPs over connsPerISP
// connections each, all from this one process. Each ISP's arrivals
// are served in due order by whichever of its connections is free; a
// connection sleeps until the next arrival is due, never longer.
//
// shed > 0 lets a knee-search step give up: once any send begins more
// than shed after its due time, the step has failed its SLO and every
// arrival not yet begun is shed (counted, with infinite latency and
// lateness) instead of sent. shed == 0 never gives up.
func runOpenLoop(arrivals []arrival, nISP, connsPerISP int, dial dialer, sp *spans, shed time.Duration) genResult {
	res := genResult{
		offered:    len(arrivals),
		latencyMs:  make([]float64, len(arrivals)),
		latenessMs: make([]float64, len(arrivals)),
		sendUs:     make([]float64, len(arrivals)),
	}
	byISP := make([][]int, nISP)
	for k, a := range arrivals {
		byISP[a.src] = append(byISP[a.src], k)
	}
	next := make([]atomic.Int64, nISP)
	var accepted, failed, dials, shedCount atomic.Int64
	var rcpts atomic.Int64
	var givingUp atomic.Bool

	// Connections open before the clock starts, so set-up cost is not
	// charged to the first sends.
	conns := make([][]sender, nISP)
	for i := range conns {
		for c := 0; c < connsPerISP; c++ {
			s, err := dial(i)
			if err != nil {
				s = nil // the worker redials and counts the failure
			} else {
				dials.Add(1)
			}
			conns[i] = append(conns[i], s)
		}
	}

	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for i := range conns {
		for c := range conns[i] {
			wg.Add(1)
			go func(isp int, conn sender) {
				defer wg.Done()
				for {
					n := int(next[isp].Add(1)) - 1
					if n >= len(byISP[isp]) {
						break
					}
					k := byISP[isp][n]
					a := &arrivals[k]
					if givingUp.Load() {
						shedCount.Add(1)
						res.latencyMs[k], res.latenessMs[k] = math.Inf(1), math.Inf(1)
						continue
					}
					due := start.Add(a.due)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					began := time.Now()
					if shed > 0 && began.Sub(due) > shed {
						givingUp.Store(true)
					}
					err := errNoConn
					if conn == nil {
						if conn, err = dial(isp); err == nil {
							dials.Add(1)
						}
					}
					if conn != nil {
						err = conn.Send(a.from, a.rcpts, a.msg)
					}
					end := time.Now()
					res.latenessMs[k] = ms(began.Sub(due))
					res.sendUs[k] = float64(end.Sub(began)) / float64(time.Microsecond)
					res.latencyMs[k] = ms(end.Sub(due))
					if sp != nil {
						id, child := sp.newID(), sp.newID()
						sp.record(id, 0, "load.arrival", due, end, a.msg.ID())
						sp.record(child, id, "smtp.send", began, end, a.msg.ID())
					}
					switch {
					case err == nil:
						accepted.Add(1)
						rcpts.Add(int64(len(a.rcpts)))
						continue
					case isProtocolError(err):
						// The session is healthy; resynchronize.
						if conn.Reset() != nil {
							_ = conn.Close()
							conn = nil
						}
					case conn != nil:
						_ = conn.Close()
						conn = nil
					}
					failed.Add(1)
					res.latencyMs[k] = math.Inf(1)
				}
				if conn != nil {
					_ = conn.Close()
				}
			}(i, conns[i][c])
		}
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.accepted = int(accepted.Load())
	res.failed = int(failed.Load())
	res.dials = int(dials.Load())
	res.shed = int(shedCount.Load())
	res.rcpts = rcpts.Load()
	return res
}

var errNoConn = errors.New("fedbench: no connection")

func isProtocolError(err error) bool {
	var pe *smtp.ProtocolError
	return errors.As(err, &pe)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
