// Package clean holds lockscope-clean critical sections: snapshot
// under the lock, block outside it.
package clean

import "sync"

type box struct {
	mu   sync.Mutex
	hits int
	emit func(int)
}

func slowRPC() {}

// SnapshotThenCall copies state under the lock and blocks only after
// releasing it.
func (b *box) SnapshotThenCall() {
	b.mu.Lock()
	n := b.hits
	b.mu.Unlock()
	slowRPC()
	b.emit(n)
}

// QueueUnderLock queues the blocking work as an argument-position
// closure (the emit-queue idiom): it runs after the unlock.
func (b *box) QueueUnderLock(queue func(func())) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.hits
	queue(func() {
		slowRPC()
		b.emit(n)
	})
}

// NonBlockingSelect polls with a default arm, which never parks.
func (b *box) NonBlockingSelect(ch chan int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case v := <-ch:
		b.hits += v
	default:
	}
}

// SpawnUnderLock starts the blocking work on a fresh goroutine, which
// holds no locks; the stop channel keeps it joinable.
func (b *box) SpawnUnderLock(done chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	go func() {
		<-done
		slowRPC()
	}()
}

// UnlockOnEveryArm releases the lock on each arm of the branch before
// blocking: no path reaches the call holding it.
func (b *box) UnlockOnEveryArm(fast bool) {
	b.mu.Lock()
	if fast {
		b.mu.Unlock()
	} else {
		b.hits++
		b.mu.Unlock()
	}
	slowRPC()
}

// UnlockOnEveryCase is the switch form: every case, default included,
// releases before the call.
func (b *box) UnlockOnEveryCase(mode int) {
	b.mu.Lock()
	switch mode {
	case 0:
		b.mu.Unlock()
	default:
		b.hits = mode
		b.mu.Unlock()
	}
	slowRPC()
}
