package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"privateer/internal/obs"
)

// span is one benchmark-side interval around a call into a module's public
// function. Spans of one program (or one served job) share a Group.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Group  string `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// event is a runtime or service trace event re-based onto the recorder's
// clock and tagged with the span group it belongs to.
type event struct {
	Group  string `json:"group"`
	Kind   string `json:"kind"`
	Phase  string `json:"phase,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Worker int    `json:"worker"`
	Iter   int64  `json:"iter"`
	A      int64  `json:"a"`
	B      int64  `json:"b"`
	Cause  string `json:"cause,omitempty"`
}

// recorder keeps the traced run's spans and events in memory; write saves
// them once, at the end. A nil *recorder is the untraced run: every method
// is a no-op.
type recorder struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	events []event
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// open starts a span and returns its ID (0 when untraced).
func (r *recorder) open(name, group string, parent int64) int64 {
	if r == nil {
		return 0
	}
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Group: group, Name: name, Start: start})
	return id
}

// close ends span id.
func (r *recorder) close(id int64) {
	if r == nil || id == 0 {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// addEvents appends runtime events whose TimeNS counts from base (the
// recorder time at which their tracer started).
func (r *recorder) addEvents(group string, base int64, evs []obs.Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ev := range evs {
		r.events = append(r.events, event{
			Group: group, Kind: ev.Kind.String(), Phase: obs.PhaseOf(ev),
			Start: base + ev.TimeNS, Dur: ev.DurNS, Worker: ev.Worker, Iter: ev.Iter,
			A: ev.A, B: ev.B, Cause: ev.Cause,
		})
	}
}

// traceFile is the written trace's schema.
type traceFile struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Spans    []span  `json:"spans"`
	Events   []event `json:"events"`
}

// write saves the trace as JSON at path.
func (r *recorder) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	r.mu.Lock()
	err = json.NewEncoder(f).Encode(traceFile{Workload: workload, Seed: seed, Spans: r.spans, Events: r.events})
	r.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return nil
}

// selfTime is one span name's total and self time: a span's self time is
// its duration minus the part of its interval that its children cover.
type selfTime struct {
	Name    string
	Count   int
	TotalNS int64
	SelfNS  int64
}

// selfTimes folds the recorded spans by name.
func (r *recorder) selfTimes() []selfTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*selfTime{}
	var order []string
	for _, s := range r.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		st.Count++
		st.TotalNS += s.End - s.Start
		st.SelfNS += s.End - s.Start - covered(s, children[s.ID])
	}
	out := make([]selfTime, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// eventSink is an unbounded, concurrency-safe obs.Sink for one traced run.
type eventSink struct {
	mu  sync.Mutex
	evs []obs.Event
}

// Emit records ev.
func (s *eventSink) Emit(ev obs.Event) {
	s.mu.Lock()
	s.evs = append(s.evs, ev)
	s.mu.Unlock()
}

func (s *eventSink) events() []obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evs
}
