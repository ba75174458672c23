// Package core assembles deployable Zmail daemons from the protocol
// engines: a Node is one compliant ISP (isp.Engine + SMTP server for
// submissions and peer relay + SMTP client for outbound + a persistent
// TCP link to the bank), and BankServer is the central bank behind a
// TCP listener speaking the wire protocol.
//
// Zmail rides unmodified SMTP (§1.3 of the paper): a Node accepts
// ordinary SMTP transactions. A transaction whose MAIL FROM is a local
// user is a submission and enters the paid path via Engine.Submit; a
// transaction announced by a known peer ISP (HELO domain) is relay
// traffic and enters via Engine.ReceiveRemote. Peer identity is
// authenticated only by the HELO domain here — a deployment would pin
// peer source addresses or use TLS client certificates; the protocol
// layers above are unchanged either way.
package core

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"zmail/internal/clock"
	"zmail/internal/isp"
	"zmail/internal/mail"
	"zmail/internal/persist"
	"zmail/internal/smtp"
	"zmail/internal/wire"
)

// NodeConfig configures a Node.
type NodeConfig struct {
	// Engine is the configured protocol engine factory input: the
	// isp.Config with Transport left nil (the Node installs itself).
	Engine isp.Config
	// ListenAddr is the SMTP listen address, e.g. ":2525" or
	// "127.0.0.1:0".
	ListenAddr string
	// BankAddr is the bank's TCP address.
	BankAddr string
	// Peers maps federation index → SMTP address for every other
	// compliant ISP.
	Peers map[int]string
	// AdminAddr, when set, binds the operator console (see admin.go);
	// bind it to loopback or an operations network only.
	AdminAddr string
	// Mailbox receives locally delivered mail; nil stores messages in
	// an internal per-user inbox readable via Node.Inbox.
	Mailbox func(user string, msg *mail.Message)
	// AckSink receives acknowledgment mail for local distributors.
	AckSink func(user string, msg *mail.Message)
	// TickInterval is the pool-maintenance cadence; zero selects 5s.
	TickInterval time.Duration
	// QueueDepth/QueueWorkers size the engine's admission queue, which
	// every node runs: submissions are admitted (policy checks,
	// reservation) inline and committed by drain workers, so SMTP DATA
	// latency is decoupled from the ledger commit. Zero values select
	// the mempool defaults (depth 1024, 2 workers).
	QueueDepth, QueueWorkers int
	// Logf logs diagnostics; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// Node is a running compliant-ISP daemon.
type Node struct {
	cfg    NodeConfig
	engine *isp.Engine
	server *smtp.Server
	addr   net.Addr

	mu      sync.Mutex
	inboxes map[string][]*mail.Message
	peers   map[int]string
	bankTx  net.Conn
	adminLn net.Listener
	closed  bool

	tickStop chan struct{}
	wg       sync.WaitGroup
}

// NewNode builds and starts a node: SMTP listener up, bank link
// dialed lazily, tick loop running.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.ListenAddr == "" {
		return nil, errors.New("core: ListenAddr is required")
	}
	if cfg.TickInterval == 0 {
		cfg.TickInterval = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Engine.Clock == nil {
		cfg.Engine.Clock = clock.System()
	}
	n := &Node{
		cfg:      cfg,
		inboxes:  make(map[string][]*mail.Message),
		peers:    make(map[int]string),
		tickStop: make(chan struct{}),
	}
	for idx, addr := range cfg.Peers {
		n.peers[idx] = addr
	}
	cfg.Engine.Transport = (*nodeTransport)(n)
	eng, err := isp.New(cfg.Engine)
	if err != nil {
		return nil, err
	}
	n.engine = eng

	n.server = &smtp.Server{
		Domain:  eng.Domain(),
		Backend: (*nodeBackend)(n),
	}
	l, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("core: listen %s: %w", cfg.ListenAddr, err)
	}
	n.addr = l.Addr()
	// Started after the last bare error return, so a failed listen
	// leaves no drain workers behind; Close stops it.
	eng.StartQueue(isp.QueueConfig{Depth: cfg.QueueDepth, Workers: cfg.QueueWorkers})

	n.wg.Add(2)
	go func() {
		defer n.wg.Done()
		if err := n.server.Serve(l); err != nil && !errors.Is(err, net.ErrClosed) {
			cfg.Logf("core: smtp server: %v", err)
		}
	}()
	go func() {
		defer n.wg.Done()
		n.tickLoop()
	}()
	if cfg.AdminAddr != "" {
		if err := n.startAdmin(cfg.AdminAddr); err != nil {
			// Full teardown, not just the SMTP listener: the Serve and
			// tick goroutines are already running and must be joined,
			// or a bad AdminAddr leaks them plus the ticker.
			_ = n.Close()
			return nil, err
		}
	}
	if cfg.BankAddr != "" {
		// Register with the bank eagerly so bank-initiated snapshot
		// requests can reach us before our first buy/sell.
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			if _, err := n.bankConn(); err != nil {
				cfg.Logf("core: initial bank connect: %v", err)
			}
		}()
	}
	return n, nil
}

// Engine exposes the underlying protocol engine.
func (n *Node) Engine() *isp.Engine { return n.engine }

// Crash-recovery plumbing: the node's durable ledger is exactly the
// engine's exported state; these delegate to the engine's checkpoint
// helpers so daemons restore/persist without reaching into Engine().
// Periodic saving is persist.StartCheckpoints on the node itself (it
// satisfies persist.Checkpointer like the engine does).

var _ persist.Checkpointer = (*Node)(nil)

// SaveState atomically persists the node's durable ledger to path.
func (n *Node) SaveState(path string) error { return n.engine.SaveState(path) }

// LoadState restores a ledger persisted by SaveState. Call before any
// traffic flows; a missing file surfaces as persist's ErrNotExist.
func (n *Node) LoadState(path string) error { return n.engine.LoadState(path) }

// Addr returns the bound SMTP address.
func (n *Node) Addr() net.Addr { return n.addr }

// Close stops the SMTP server, the tick loop, and the bank link. The
// admission queue drains first, while the outbound transports are
// still up, so accepted mail is not dropped on shutdown; submissions
// that arrive after it stopped are answered 451 (ErrQueueFull).
func (n *Node) Close() error {
	n.engine.StopQueue()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	tx := n.bankTx
	n.bankTx = nil
	n.mu.Unlock()
	close(n.tickStop)
	n.closeAdmin()
	if tx != nil {
		_ = tx.Close()
	}
	err := n.server.Close()
	n.wg.Wait()
	return err
}

// Inbox returns messages stored for a local user (when no Mailbox
// callback was configured).
func (n *Node) Inbox(user string) []*mail.Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]*mail.Message(nil), n.inboxes[user]...)
}

func (n *Node) tickLoop() {
	t := time.NewTicker(n.cfg.TickInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := n.engine.Tick(); err != nil && !errors.Is(err, isp.ErrNotConfigured) {
				n.cfg.Logf("core: tick: %v", err)
			}
		case <-n.tickStop:
			return
		}
	}
}

// bankConn returns (dialing if needed) the persistent bank link and
// ensures its reader goroutine is running. The dial and hello happen
// outside n.mu — a slow or black-holed bank must not stall every
// other node operation behind the mutex — so two callers may race to
// dial; the loser's connection is closed and the winner's kept.
func (n *Node) bankConn() (net.Conn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, net.ErrClosed
	}
	if n.bankTx != nil {
		conn := n.bankTx
		n.mu.Unlock()
		return conn, nil
	}
	addr := n.cfg.BankAddr
	n.mu.Unlock()
	if addr == "" {
		return nil, errors.New("core: no bank address configured")
	}

	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("core: dial bank: %w", err)
	}
	// Identify ourselves so the bank can route snapshot requests to
	// this connection before we ever buy or sell.
	hello := &wire.Envelope{Kind: wire.KindHello, From: int32(n.engine.Index())}
	if err := wire.WriteEnvelope(conn, hello); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("core: bank hello: %w", err)
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		_ = conn.Close()
		return nil, net.ErrClosed
	}
	if n.bankTx != nil {
		// Lost the dial race; use the established link.
		won := n.bankTx
		n.mu.Unlock()
		_ = conn.Close()
		return won, nil
	}
	n.bankTx = conn
	n.wg.Add(1)
	n.mu.Unlock()
	go func() {
		defer n.wg.Done()
		n.bankReadLoop(conn)
	}()
	return conn, nil
}

func (n *Node) bankReadLoop(conn net.Conn) {
	for {
		env, err := wire.ReadEnvelope(conn)
		if err != nil {
			n.mu.Lock()
			if n.bankTx == conn {
				n.bankTx = nil
			}
			closed := n.closed
			n.mu.Unlock()
			if !closed {
				n.cfg.Logf("core: bank link lost: %v", err)
			}
			return
		}
		if err := n.engine.HandleBank(env); err != nil {
			n.cfg.Logf("core: bank message: %v", err)
		}
	}
}

// nodeTransport implements isp.Transport over real sockets.
type nodeTransport Node

var _ isp.Transport = (*nodeTransport)(nil)

// AddPeer registers (or updates) the SMTP address for a federation
// peer. Useful when listener ports are allocated dynamically.
func (n *Node) AddPeer(index int, addr string) {
	n.mu.Lock()
	n.peers[index] = addr
	n.mu.Unlock()
}

func (t *nodeTransport) SendMail(toIndex int, toDomain string, msg *mail.Message) {
	n := (*Node)(t)
	n.mu.Lock()
	addr, ok := n.peers[toIndex]
	n.mu.Unlock()
	if !ok {
		n.cfg.Logf("core: no route to isp[%d] (%s); dropping %s", toIndex, toDomain, msg.ID())
		return
	}
	// Asynchronous relay, like a real MTA queue runner.
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		err := smtp.SendMail(addr, n.engine.Domain(), msg.From, []mail.Address{msg.To}, msg, 30*time.Second)
		if err != nil {
			n.cfg.Logf("core: relay to %s: %v", toDomain, err)
		}
	}()
}

func (t *nodeTransport) SendBank(env *wire.Envelope) {
	n := (*Node)(t)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		conn, err := n.bankConn()
		if err != nil {
			n.cfg.Logf("core: bank send: %v", err)
			return
		}
		if err := wire.WriteEnvelope(conn, env); err != nil {
			n.cfg.Logf("core: bank write: %v", err)
			_ = conn.Close()
		}
	}()
}

func (t *nodeTransport) DeliverLocal(user string, msg *mail.Message) {
	n := (*Node)(t)
	if n.cfg.Mailbox != nil {
		n.cfg.Mailbox(user, msg)
		return
	}
	n.mu.Lock()
	n.inboxes[user] = append(n.inboxes[user], msg)
	n.mu.Unlock()
}

func (t *nodeTransport) DeliverAck(user string, msg *mail.Message) {
	n := (*Node)(t)
	if n.cfg.AckSink != nil {
		n.cfg.AckSink(user, msg)
	}
}

// nodeBackend implements smtp.Backend: it decides per transaction
// whether this is a local submission or peer relay.
type nodeBackend Node

var _ smtp.Backend = (*nodeBackend)(nil)

func (b *nodeBackend) NewSession(heloDomain string, _ net.Addr) (smtp.Session, error) {
	return &nodeSession{node: (*Node)(b), helo: heloDomain}, nil
}

type nodeSession struct {
	node *Node
	helo string
	from mail.Address
}

func (s *nodeSession) Mail(from mail.Address) error {
	s.from = from
	return nil
}

func (s *nodeSession) Rcpt(to mail.Address) error {
	// Submissions may target anyone; relay must target a local user.
	if s.from.Domain == s.node.engine.Domain() {
		return nil
	}
	if to.Domain != s.node.engine.Domain() {
		return fmt.Errorf("relaying denied for %v", to)
	}
	return nil
}

func (s *nodeSession) Data(to mail.Address, msg *mail.Message) error {
	msg.To = to
	if s.from.Domain == s.node.engine.Domain() {
		// Local submission. Admission backpressure is temporary by
		// definition — the queue drains — so it surfaces as a 451 the
		// client retries, not a 550 rejection.
		if err := s.node.engine.Submit(msg); err != nil {
			if errors.Is(err, isp.ErrQueueFull) {
				return smtp.Transient{Err: err}
			}
			return err
		}
		return nil
	}
	// Peer relay: the transmitting ISP's identity is its HELO domain.
	return s.node.engine.ReceiveRemote(s.helo, msg)
}

func (s *nodeSession) Reset() {}
