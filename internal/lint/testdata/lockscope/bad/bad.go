// Package bad is a lockscope fixture: blocking work performed while a
// mutex is held. Lines carrying a `want` marker are expected findings.
package bad

import "sync"

type box struct {
	mu   sync.Mutex
	hits int
	emit func(int)
}

// slowRPC is config-listed as blocking
// (Config.LockScopeBlockingFuncs); it stands in for a wire read/write.
func slowRPC() {}

// CallUnderLock performs the blocking call inside the critical
// section.
func (b *box) CallUnderLock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	slowRPC() //want lockscope
}

// SendUnderLock parks on a channel send while holding the mutex.
func (b *box) SendUnderLock(ch chan int) {
	b.mu.Lock()
	ch <- b.hits //want lockscope
	b.mu.Unlock()
}

// relay blocks transitively: callers inherit the taint.
func relay() {
	slowRPC()
}

// TransitiveUnderLock blocks through an in-package helper.
func (b *box) TransitiveUnderLock() {
	b.mu.Lock()
	relay() //want lockscope
	b.mu.Unlock()
}

// HookUnderLock invokes a func-valued field: arbitrary caller code
// runs under the lock.
func (b *box) HookUnderLock() {
	b.mu.Lock()
	b.emit(b.hits) //want lockscope
	b.mu.Unlock()
}

// LockOnEveryArm takes the lock on each arm of the branch, so every
// path reaches the call holding it.
func (b *box) LockOnEveryArm(fast bool) {
	if fast {
		b.mu.Lock()
	} else {
		b.hits++
		b.mu.Lock()
	}
	slowRPC() //want lockscope
	b.mu.Unlock()
}
