package isp

import (
	"errors"
	"strings"
	"testing"

	"zmail/internal/mail"
)

// parkableTransport wraps fakeTransport so a test can park the single
// drain worker inside a commit: the first SendMail for the designated
// sender blocks until released, making queue occupancy deterministic.
func parkWorkerOn(ft *fakeTransport, local string) (started, release chan struct{}) {
	started = make(chan struct{})
	release = make(chan struct{})
	ft.onMail = func(sm sentMail) {
		if sm.msg.From.Local == local {
			close(started)
			<-release
		}
	}
	return started, release
}

func remoteMsg(from string) *mail.Message {
	return mail.NewMessage(addr(from+"@a.example"), addr("x@b.example"), "s", "b")
}

// TestSubmitWithoutQueueCommitsInline: with no queue attached only
// the synchronous SubmitSync commits inline; Submit refuses with
// ErrQueueFull and charges nobody, so a caller sees backpressure
// instead of a silent change of path.
func TestSubmitWithoutQueueCommitsInline(t *testing.T) {
	e, ft, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "alice", 0, 5)
	mustRegister(t, e, "bob", 0, 5)
	msg := func() *mail.Message {
		return mail.NewMessage(addr("alice@a.example"), addr("bob@a.example"), "s", "b")
	}
	if err := e.Submit(msg()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit without a queue = %v, want ErrQueueFull", err)
	}
	if info, _ := e.User("alice"); info.Balance != 5 || info.Sent != 0 || len(ft.local) != 0 {
		t.Fatalf("refused Submit changed state: alice %+v, deliveries %v", info, ft.local)
	}
	if got := e.Stats().QueueRejected; got != 1 {
		t.Fatalf("QueueRejected = %d, want 1", got)
	}
	if _, err := e.SubmitSync(msg()); err != nil {
		t.Fatal(err)
	}
	if len(ft.local) != 1 || ft.local[0].user != "bob" {
		t.Fatalf("local deliveries = %v", ft.local)
	}
}

func TestSubmitAsyncCommitsThroughQueue(t *testing.T) {
	e, ft, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "alice", 0, 8)
	e.StartQueue(QueueConfig{Depth: 16, Workers: 1, Batch: 4})
	defer e.StopQueue()
	for i := 0; i < 5; i++ {
		if err := e.Submit(remoteMsg("alice")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	e.FlushQueue()
	if len(ft.mails) != 5 {
		t.Fatalf("transmitted %d messages, want 5", len(ft.mails))
	}
	info, _ := e.User("alice")
	if info.Balance != 3 || info.Sent != 5 {
		t.Fatalf("alice after drain = %+v", info)
	}
	if qs := e.QueueStats(); qs.Enqueued != 5 || qs.Committed != 5 || qs.Rejected != 0 {
		t.Fatalf("queue stats = %+v", qs)
	}
	if e.QueueDepth() != 0 {
		t.Fatalf("queue depth = %d after flush", e.QueueDepth())
	}
}

func TestSubmitQueueFullBackpressure(t *testing.T) {
	e, ft, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "parker", 0, 5)
	mustRegister(t, e, "alice", 0, 8)
	started, release := parkWorkerOn(ft, "parker")
	e.StartQueue(QueueConfig{Depth: 2, Workers: 1, Batch: 1})
	defer e.StopQueue()

	// Park the single worker inside parker's commit so the buffer state
	// below is deterministic.
	if err := e.Submit(remoteMsg("parker")); err != nil {
		t.Fatal(err)
	}
	<-started
	// Worker parked, buffer empty: exactly Depth admissions fit.
	for i := 0; i < 2; i++ {
		if err := e.Submit(remoteMsg("alice")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := e.Submit(remoteMsg("alice")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull submit err = %v, want ErrQueueFull", err)
	}
	if got := e.Stats().QueueRejected; got != 1 {
		t.Fatalf("QueueRejected = %d, want 1", got)
	}
	close(release)
	e.StopQueue()
	// The rejection released its reservation; the two admitted messages
	// committed on drain.
	info, _ := e.User("alice")
	if info.Sent != 2 {
		t.Fatalf("alice sent = %d, want 2", info.Sent)
	}
	s := e.stripeFor("alice")
	s.mu.Lock()
	pending := s.users["alice"].pending
	s.mu.Unlock()
	if pending != 0 {
		t.Fatalf("alice pending = %d after drain, want 0", pending)
	}
	if len(ft.mails) != 3 {
		t.Fatalf("transmitted %d, want 3", len(ft.mails))
	}
}

func TestSubmitAdmissionEnforcesLimitWithPending(t *testing.T) {
	e, ft, _ := newEngine(t, 0, nil, func(c *Config) { c.DefaultLimit = 3 })
	mustRegister(t, e, "parker", 0, 5)
	mustRegister(t, e, "alice", 0, 10)
	started, release := parkWorkerOn(ft, "parker")
	e.StartQueue(QueueConfig{Depth: 16, Workers: 1, Batch: 1})
	defer e.StopQueue()

	if err := e.Submit(remoteMsg("parker")); err != nil {
		t.Fatal(err)
	}
	<-started
	// With the worker parked, nothing commits: the limit must hold
	// against queued reservations alone (sent stays 0, pending grows).
	for i := 0; i < 3; i++ {
		if err := e.Submit(remoteMsg("alice")); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := e.Submit(remoteMsg("alice")); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("over-limit submit err = %v, want ErrLimitExceeded", err)
	}
	st := e.Stats()
	if st.LimitRejects != 1 || st.ZombieWarnings != 1 {
		t.Fatalf("stats = %+v, want 1 limit reject + 1 zombie warning", st)
	}
	// The §5 warning was delivered from the admission path.
	if len(ft.local) != 1 || ft.local[0].msg.From.Local != "postmaster" ||
		!strings.Contains(ft.local[0].msg.Subject(), "limit") {
		t.Fatalf("zombie warning delivery = %+v", ft.local)
	}
	close(release)
	e.StopQueue()
	info, _ := e.User("alice")
	if info.Sent != 3 {
		t.Fatalf("alice sent = %d, want 3", info.Sent)
	}
}

func TestStartQueueIdempotentAndStopDetaches(t *testing.T) {
	e, _, _ := newEngine(t, 0, nil, nil)
	mustRegister(t, e, "alice", 0, 4)
	e.StartQueue(QueueConfig{})
	e.StartQueue(QueueConfig{}) // second attach is a no-op (and leaks no workers)
	if err := e.Submit(remoteMsg("alice")); err != nil {
		t.Fatal(err)
	}
	e.StopQueue()
	// Detached: Submit refuses, as a shutting-down node answers 451.
	if err := e.Submit(remoteMsg("alice")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("post-stop Submit = %v, want ErrQueueFull", err)
	}
	if info, _ := e.User("alice"); info.Sent != 1 {
		t.Fatalf("alice sent = %d, want 1 (the drained message only)", info.Sent)
	}
	e.StopQueue() // idempotent
}
