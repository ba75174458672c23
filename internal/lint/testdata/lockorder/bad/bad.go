// Package bad is the lockorder positive fixture: a miniature of the
// isp engine's lock landscape (freezeMu → stripe → cold mu) with one
// of each violation class the pass must catch.
package bad

import "sync"

// demoStripe mimics isp.accountStripe: the "stripe" in its type name
// ranks its mu at the stripe level.
type demoStripe struct {
	mu    sync.Mutex
	users map[string]int
}

// engine mimics isp.Engine's lock fields.
type engine struct {
	freezeMu sync.RWMutex
	mu       sync.Mutex
	stripes  []demoStripe
}

// Inverted acquires the freeze gate while holding the cold mutex —
// the inversion that deadlocks against every correctly-ordered path.
func (e *engine) Inverted() {
	e.mu.Lock()
	e.freezeMu.RLock() //want lockorder
	e.freezeMu.RUnlock()
	e.mu.Unlock()
}

// StripeThenFreeze inverts at the stripe level.
func (e *engine) StripeThenFreeze(s *demoStripe) {
	s.mu.Lock()
	e.freezeMu.RLock() //want lockorder
	e.freezeMu.RUnlock()
	s.mu.Unlock()
}

// DoubleStripe holds two raw stripe locks at once instead of going
// through lockTwoStripes (which orders by index).
func (e *engine) DoubleStripe(a, b *demoStripe) {
	a.mu.Lock()
	b.mu.Lock() //want lockorder
	b.mu.Unlock()
	a.mu.Unlock()
}

// Leaky locks the cold mutex and forgets to release it.
func (e *engine) Leaky() { //want lockorder
	e.mu.Lock()
	e.stripes = nil
}

// ColdOnEveryArm takes the cold mutex on each arm of the branch, so
// every path reaches the freeze acquire holding it.
func (e *engine) ColdOnEveryArm(fast bool) {
	if fast {
		e.mu.Lock()
	} else {
		e.stripes = nil
		e.mu.Lock()
	}
	e.freezeMu.RLock() //want lockorder
	e.freezeMu.RUnlock()
	e.mu.Unlock()
}
