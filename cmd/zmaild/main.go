// Command zmaild runs one compliant Zmail ISP: an SMTP server for user
// submissions and peer relay, the per-user e-penny ledger, and a
// persistent link to the bank for pool inventory and credit audits.
//
// Example (ISP 0 of a two-ISP federation):
//
//	zkeygen -out isp0
//	zmaild -index 0 -domains alpha.example,beta.example \
//	       -listen :2525 -bank bankhost:7999 \
//	       -peer 1=betahost:2525 \
//	       -key isp0.key -bankpub bank.pub \
//	       -user alice:1000:50:200 -user bob:1000:50:200
//
// Users are local:accountPennies:balanceEPennies:dailyLimit. Delivered
// mail is printed to stdout; pass -maildir to store messages as files
// instead.
//
// Pass -metrics 127.0.0.1:7070 to serve the admin telemetry listener:
// /metrics (Prometheus text), /healthz, /tracez, and /debug/pprof.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"zmail/internal/clock"
	"zmail/internal/core"
	"zmail/internal/crypto"
	"zmail/internal/isp"
	"zmail/internal/mail"
	"zmail/internal/metrics"
	"zmail/internal/money"
	"zmail/internal/obsv"
	"zmail/internal/persist"
	"zmail/internal/trace"
)

// traceRingSpans is how many recent spans the daemon retains for
// /tracez. At one paid delivery ≈ three spans this is a few minutes of
// history on a busy ISP, in ~300 KB.
const traceRingSpans = 4096

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// usagef marks a flag-validation failure: the daemon exits non-zero
// before binding anything, and the error reads as a usage message.
func usagef(format string, a ...any) error {
	return fmt.Errorf("usage: "+format, a...)
}

// checkAddr rejects a listen/dial address that cannot even be split
// into host and port, before any boot work happens. Bindability is
// still the listener's problem — a well-formed but taken or
// unroutable address fails later, at bind time.
func checkAddr(flagName, addr string) error {
	if addr == "" {
		return nil
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return usagef("bad %s address %q: %v", flagName, addr, err)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "zmaild:", err)
		os.Exit(1)
	}
}

// daemon is one booted zmaild instance: the protocol node plus its
// telemetry surface and shutdown hooks, in the order Close runs them.
type daemon struct {
	node      *core.Node
	admin     *obsv.Server // nil unless -metrics was given
	reg       *metrics.Registry
	ring      *trace.Ring
	domains   []string
	bankAddr  string
	delivered atomic.Int64
	logf      func(format string, a ...any)
	stopCkpt  func() // no-op when checkpoints are off
	closeWAL  func() // no-op without -wal
}

// Close shuts the daemon down: stop the checkpoint timer, close the
// listeners and drain the admission queue, then close the write-ahead
// log, so every message already answered 250 and every relay received
// before the listeners closed is in the log.
func (d *daemon) Close() {
	d.stopCkpt()
	if d.admin != nil {
		if err := d.admin.Close(); err != nil {
			d.logf("metrics server close: %v", err)
		}
	}
	d.node.Close()
	d.closeWAL()
}

func run(args []string) error {
	d, err := boot(args)
	if err != nil {
		return err
	}
	defer d.Close()

	d.logf("SMTP on %s; federation %v; bank %s", d.node.Addr(), d.domains, d.bankAddr)
	if a := d.node.AdminAddr(); a != nil {
		d.logf("admin console on %s", a)
	}
	if d.admin != nil {
		d.logf("metrics on http://%s/metrics", d.admin.Addr())
	}

	// Daily reset of sent counters at local midnight.
	midnight := make(chan struct{}, 1)
	go func() {
		for {
			now := time.Now()
			next := time.Date(now.Year(), now.Month(), now.Day(), 0, 0, 0, 0, now.Location()).AddDate(0, 0, 1)
			time.Sleep(time.Until(next))
			midnight <- struct{}{}
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case <-midnight:
			d.node.Engine().EndOfDay()
			d.logf("daily send counters reset")
		case <-stop:
			d.logf("shutting down (%d messages delivered)", d.delivered.Load())
			return nil
		}
	}
}

// boot parses flags, builds the node with its tracer and metrics
// registry, restores state, registers users, and starts the checkpoint
// timer and admin telemetry listener. The caller owns Close.
func boot(args []string) (*daemon, error) {
	fs := flag.NewFlagSet("zmaild", flag.ContinueOnError)
	var users, peers stringList
	var (
		index     = fs.Int("index", -1, "this ISP's federation index (required)")
		domainCSV = fs.String("domains", "", "comma-separated federation domains, in index order (required)")
		compliant = fs.String("compliant", "", "comma-separated 0/1 per ISP (default: all compliant)")
		listen    = fs.String("listen", ":2525", "SMTP listen address")
		bankAddr  = fs.String("bank", "", "bank TCP address")
		keyFile   = fs.String("key", "", "this ISP's private key file")
		bankPub   = fs.String("bankpub", "", "bank public key file")
		insecure  = fs.Bool("insecure", false, "plaintext sealers (local experiments only)")
		minAvail  = fs.Int64("minavail", 1000, "pool low-water mark")
		maxAvail  = fs.Int64("maxavail", 100000, "pool high-water mark")
		initAvail = fs.Int64("initavail", 10000, "initial pool")
		limit     = fs.Int64("limit", 500, "default per-user daily send limit")
		freeze    = fs.Duration("freeze", 10*time.Minute, "snapshot quiet period (paper: 10m)")
		policy    = fs.String("policy", "accept", "unpaid-mail policy: accept|tag|reject")
		maildir   = fs.String("maildir", "", "store delivered mail under this directory instead of stdout")
		admin     = fs.String("admin", "", "operator console listen address (loopback only!), e.g. 127.0.0.1:7025")
		metricsAd = fs.String("metrics", "", "admin telemetry listen address (loopback only!), e.g. 127.0.0.1:7070")
		walDir    = fs.String("wal", "", "write-ahead-log directory; every mutation is logged and boot replays the log")
		queueDep  = fs.Int("queue-depth", 0, "admission queue depth; a full queue answers 451 (0 = default 1024)")
		queueWrk  = fs.Int("queue-workers", 0, "admission queue drain workers (0 = default 2)")
	)
	fs.Var(&users, "user", "local:accountPennies:balanceEPennies:dailyLimit; repeatable")
	fs.Var(&peers, "peer", "index=host:port of a peer ISP; repeatable")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	// Every flag-level rejection happens here, before any listener
	// binds or ledger loads: a misconfigured daemon must die with a
	// usage message, not half-boot.
	if *index < 0 || *domainCSV == "" {
		return nil, usagef("-index and -domains are required")
	}
	domains := strings.Split(*domainCSV, ",")
	if *index >= len(domains) {
		return nil, usagef("index %d outside %d domains", *index, len(domains))
	}
	for _, a := range []struct{ name, addr string }{
		{"-listen", *listen}, {"-bank", *bankAddr},
		{"-admin", *admin}, {"-metrics", *metricsAd},
	} {
		if err := checkAddr(a.name, a.addr); err != nil {
			return nil, err
		}
	}

	var compliantArr []bool
	if *compliant != "" {
		for _, tok := range strings.Split(*compliant, ",") {
			compliantArr = append(compliantArr, strings.TrimSpace(tok) == "1")
		}
		if len(compliantArr) != len(domains) {
			return nil, usagef("-compliant has %d entries for %d domains", len(compliantArr), len(domains))
		}
	}

	var ownSealer, bankSealer crypto.Sealer
	switch {
	case *insecure:
		ownSealer, bankSealer = crypto.Null{}, crypto.Null{}
	case *keyFile != "" && *bankPub != "":
		keyData, err := os.ReadFile(*keyFile)
		if err != nil {
			return nil, err
		}
		box, err := crypto.LoadPrivatePEM(keyData)
		if err != nil {
			return nil, err
		}
		ownSealer = box
		pubData, err := os.ReadFile(*bankPub)
		if err != nil {
			return nil, err
		}
		bankBox, err := crypto.LoadPublicPEM(pubData)
		if err != nil {
			return nil, err
		}
		bankSealer = bankBox
	default:
		return nil, usagef("provide -key and -bankpub, or -insecure")
	}

	var pol isp.NonCompliantPolicy
	switch *policy {
	case "accept":
		pol = isp.AcceptUnpaid
	case "tag":
		pol = isp.TagUnpaid
	case "reject":
		pol = isp.RejectUnpaid
	default:
		return nil, usagef("unknown -policy %q", *policy)
	}

	peerMap := make(map[int]string)
	for _, p := range peers {
		idx, addr, ok := strings.Cut(p, "=")
		if !ok {
			return nil, usagef("bad -peer %q", p)
		}
		i, err := strconv.Atoi(idx)
		if err != nil {
			return nil, usagef("bad -peer index %q", idx)
		}
		peerMap[i] = addr
	}

	d := &daemon{
		domains:  domains,
		bankAddr: *bankAddr,
		stopCkpt: func() {},
		closeWAL: func() {},
	}
	d.logf = func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "zmaild[%s]: "+format+"\n",
			append([]any{domains[*index]}, a...)...)
	}

	mailbox := func(user string, msg *mail.Message) {
		n := d.delivered.Add(1)
		if *maildir != "" {
			dir := filepath.Join(*maildir, user)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				d.logf("maildir: %v", err)
				return
			}
			name := filepath.Join(dir, fmt.Sprintf("%d.eml", n))
			if err := os.WriteFile(name, []byte(msg.Encode()), 0o644); err != nil {
				d.logf("maildir: %v", err)
			}
			return
		}
		fmt.Printf("DELIVER %s@%s  from=%v subject=%q\n", user, domains[*index], msg.From, msg.Subject())
	}

	// One clock drives the engine, the tracer, and the checkpoint timer;
	// one ring retains recent spans for /tracez.
	clk := clock.System()
	d.ring = trace.NewRing(traceRingSpans)
	d.reg = metrics.NewRegistry()
	tracer := trace.New(domains[*index], *index, clk, d.ring)

	node, err := core.NewNode(core.NodeConfig{
		Engine: isp.Config{
			Index:          *index,
			Domain:         domains[*index],
			Directory:      isp.NewDirectory(domains, compliantArr),
			MinAvail:       money.EPenny(*minAvail),
			MaxAvail:       money.EPenny(*maxAvail),
			InitialAvail:   money.EPenny(*initAvail),
			DefaultLimit:   *limit,
			FreezeDuration: *freeze,
			Policy:         pol,
			BankSealer:     bankSealer,
			OwnSealer:      ownSealer,
			Clock:          clk,
			Tracer:         tracer,
		},
		ListenAddr:   *listen,
		BankAddr:     *bankAddr,
		Peers:        peerMap,
		AdminAddr:    *admin,
		Mailbox:      mailbox,
		Logf:         d.logf,
		QueueDepth:   *queueDep,
		QueueWorkers: *queueWrk,
	})
	if err != nil {
		return nil, err
	}
	d.node = node
	d.reg.Register(node.Engine())

	if *walDir != "" {
		eng := node.Engine()
		if persist.HasWAL(*walDir) {
			if err := eng.RecoverWAL(*walDir); err != nil {
				d.Close()
				return nil, fmt.Errorf("recover %s: %w", *walDir, err)
			}
			d.logf("recovered ledger from WAL %s (%d users)", *walDir, len(eng.ExportState().Users))
		} else {
			if err := eng.AttachWAL(*walDir); err != nil {
				d.Close()
				return nil, fmt.Errorf("init %s: %w", *walDir, err)
			}
			d.logf("write-ahead log initialized at %s", *walDir)
		}
		d.closeWAL = func() {
			if err := eng.CloseWAL(); err != nil {
				d.logf("close wal: %v", err)
			}
		}
		// With a WAL attached SaveState ignores its path: the periodic
		// checkpoint fsyncs the log, compacting when it outgrows the
		// snapshot threshold.
		d.stopCkpt = persist.StartCheckpoints(clk, node, "", 5*time.Minute, func(err error) {
			d.logf("checkpoint: %v", err)
		})
	}

	for _, u := range users {
		parts := strings.Split(u, ":")
		if len(parts) != 4 {
			d.Close()
			return nil, usagef("bad -user %q (want local:account:balance:limit)", u)
		}
		account, err1 := strconv.ParseInt(parts[1], 10, 64)
		balance, err2 := strconv.ParseInt(parts[2], 10, 64)
		lim, err3 := strconv.ParseInt(parts[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			d.Close()
			return nil, usagef("bad -user %q", u)
		}
		err := node.Engine().RegisterUser(parts[0], money.Penny(account), money.EPenny(balance), lim)
		switch {
		case errors.Is(err, isp.ErrDuplicateUser):
			// Already present in the restored ledger; the ledger wins.
			continue
		case err != nil:
			d.Close()
			return nil, err
		}
		d.logf("registered user %s (account %v, balance %v, limit %d)",
			parts[0], money.Penny(account), money.EPenny(balance), lim)
	}

	if *metricsAd != "" {
		srv, err := obsv.Start(*metricsAd, obsv.Config{Registry: d.reg, Ring: d.ring})
		if err != nil {
			d.Close()
			return nil, err
		}
		d.admin = srv
	}
	return d, nil
}
