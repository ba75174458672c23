package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of that call.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Msg    string `json:"msg,omitempty"` // message ID, when the span serves one message
}

// spans keeps every span in memory until the run ends. A nil *spans
// records nothing, so untraced runs pay one nil check per call site.
type spans struct {
	epoch  time.Time
	mu     sync.Mutex
	nextID int64
	list   []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// newID reserves a span ID, so a parent can be named before it ends.
func (s *spans) newID() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return s.nextID
}

// record stores a finished span under an ID from newID.
func (s *spans) record(id, parent int64, name string, start, end time.Time, msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(s.epoch)), End: int64(end.Sub(s.epoch)), Msg: msg})
	s.mu.Unlock()
}

// time runs fn inside a span called name and returns its duration;
// with a nil recorder it only times fn.
func (s *spans) time(parent int64, name string, fn func()) time.Duration {
	id := s.newID()
	t0 := time.Now()
	fn()
	t1 := time.Now()
	s.record(id, parent, name, t0, t1, "")
	return t1.Sub(t0)
}

// count reports how many spans were recorded.
func (s *spans) count() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.list)
}

// write dumps every span as one JSON document.
func (s *spans) write(path string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := json.Marshal(struct {
		Epoch time.Time `json:"epoch"`
		Spans []span    `json:"spans"`
	}{s.epoch, s.list})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
