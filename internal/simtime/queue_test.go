package simtime

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// refEvent is one pending event in the reference model.
type refEvent struct {
	at, stamp time.Duration
	key, sub  uint32
	id        int // scheduling order; equals the scheduler's seq order
	child     time.Duration
}

func refLess(a, b refEvent) bool {
	switch {
	case a.at != b.at:
		return a.at < b.at
	case a.stamp != b.stamp:
		return a.stamp < b.stamp
	case a.key != b.key:
		return a.key < b.key
	case a.sub != b.sub:
		return a.sub < b.sub
	}
	return a.id < b.id
}

// refQueue is the reference: an unordered slice searched linearly for the
// minimum under (at, stamp, key, sub, seq).
type refQueue struct {
	now     time.Duration
	pending []refEvent
	nextID  int
	fired   []int
}

func (r *refQueue) min() int {
	m := -1
	for i, ev := range r.pending {
		if m < 0 || refLess(ev, r.pending[m]) {
			m = i
		}
	}
	return m
}

func (r *refQueue) add(ev refEvent) {
	ev.id = r.nextID
	r.nextID++
	r.pending = append(r.pending, ev)
}

// step fires the earliest event if its time is at most limit.
func (r *refQueue) step(limit time.Duration) bool {
	m := r.min()
	if m < 0 || r.pending[m].at > limit {
		return false
	}
	ev := r.pending[m]
	r.pending = append(r.pending[:m], r.pending[m+1:]...)
	r.now = max(r.now, ev.at)
	r.fired = append(r.fired, ev.id)
	if ev.child >= 0 {
		r.add(refEvent{at: r.now + ev.child, stamp: r.now, child: -1})
	}
	return true
}

// queueHarness applies one operation stream to a Scheduler and the reference
// in lockstep.
type queueHarness struct {
	s       *Scheduler
	ref     refQueue
	fired   []int
	handles map[int]*Event
	nextID  int
}

// deltas are the offsets operations draw from: many zero and tiny values for
// ties, and large ones that land in high buckets.
var deltas = []time.Duration{0, 0, 0, 1, 1, 2, 3, 7, 64, 1000, 4096, 1 << 20, 1 << 33, 1 << 45}

func (d *queueHarness) delta(b byte) time.Duration { return deltas[int(b)%len(deltas)] }

// record keeps a new event's handle under the id the reference gives it.
func (d *queueHarness) record(ev *Event) {
	d.handles[d.nextID] = ev
	d.nextID++
}

// fire records a fired event and drops its handle, which the scheduler may
// now recycle.
func (d *queueHarness) fire(id int) {
	d.fired = append(d.fired, id)
	delete(d.handles, id)
}

func (d *queueHarness) fn(child time.Duration) func(any) {
	return func(x any) {
		d.fire(x.(int))
		if child >= 0 {
			id := d.nextID
			d.record(d.s.AtArg(d.s.Now()+child, func(any) { d.fire(id) }, nil))
		}
	}
}

// op applies one operation encoded in four bytes.
func (d *queueHarness) op(code, a, b, c byte) error {
	s, r := d.s, &d.ref
	child := time.Duration(-1)
	if c%4 == 0 {
		child = d.delta(c / 4)
	}
	switch code % 9 {
	case 0: // At, sometimes into the past (clamped to Now)
		t := s.Now() + d.delta(a)
		if b%5 == 0 {
			t = s.Now() - d.delta(a) - 1
		}
		id := r.nextID
		r.add(refEvent{at: max(t, r.now), stamp: r.now, child: child})
		d.record(s.AtArg(t, d.fn(child), id))
	case 1: // AtArgKeyed with few distinct keys and subs
		t := s.Now() + d.delta(a)
		key, sub := uint32(b%3), uint32(c%3)
		id := r.nextID
		r.add(refEvent{at: t, stamp: r.now, key: key, sub: sub, child: -1})
		d.record(s.AtArgKeyed(t, key, sub, KindOther, d.fn(-1), id))
	case 2: // InjectAt with a stamp before Now, or past t (clamped to t)
		t := s.Now() + d.delta(a)
		stamp := max(0, s.Now()-d.delta(b))
		if b%4 == 0 {
			stamp = t + 1
		}
		key, sub := uint32(c%3), uint32(c/3%2)
		id := r.nextID
		r.add(refEvent{at: t, stamp: min(stamp, t), key: key, sub: sub, child: -1})
		d.record(s.InjectAt(t, stamp, key, sub, KindOther, d.fn(-1), id))
	case 3: // Cancel a pending event
		if len(r.pending) == 0 {
			return nil
		}
		i := int(a) % len(r.pending)
		id := r.pending[i].id
		r.pending = append(r.pending[:i], r.pending[i+1:]...)
		d.handles[id].Cancel()
		delete(d.handles, id)
	case 4, 5: // Step
		want := r.step(1<<63 - 1)
		if got := s.Step(); got != want {
			return fmt.Errorf("Step() = %v, want %v", got, want)
		}
	case 6: // RunUntil
		t := s.Now() + d.delta(a)
		for r.step(t) {
		}
		r.now = max(r.now, t)
		s.RunUntil(t)
	case 7: // RunUntilBefore, then AdvanceTo as a sharded window does
		t := s.Now() + d.delta(a)
		for r.step(t - 1) {
		}
		s.RunUntilBefore(t)
		if b%2 == 0 {
			r.now = max(r.now, t)
			s.AdvanceTo(t)
		}
	case 8: // AdvanceTo must panic exactly when it would skip an event
		t := s.Now() + d.delta(a)
		m := r.min()
		wantPanic := m >= 0 && r.pending[m].at < t
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			s.AdvanceTo(t)
			return false
		}()
		if panicked != wantPanic {
			return fmt.Errorf("AdvanceTo(%v) panicked=%v, want %v", t, panicked, wantPanic)
		}
		if !wantPanic {
			r.now = max(r.now, t)
		}
	}
	return nil
}

// checkQueueAgainstReference drives a Scheduler and the reference with the
// operations encoded in data and requires the same fire order, the same
// clock and the same Len after every operation, and after a final Run.
func checkQueueAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	d := &queueHarness{s: NewScheduler(), handles: map[int]*Event{}}
	checked := 0 // d.fired[:checked] already matched the reference
	check := func(step int) {
		t.Helper()
		if len(d.fired) != len(d.ref.fired) {
			t.Fatalf("op %d: fired %d events, reference %d\ngot  %v\nwant %v", step, len(d.fired), len(d.ref.fired), d.fired[checked:], d.ref.fired[checked:])
		}
		for i := checked; i < len(d.fired); i++ {
			if d.fired[i] != d.ref.fired[i] {
				t.Fatalf("op %d: fire order diverges at %d\ngot  %v\nwant %v", step, i, d.fired[checked:], d.ref.fired[checked:])
			}
		}
		checked = len(d.fired)
		if got, want := d.s.Len(), len(d.ref.pending); got != want {
			t.Fatalf("op %d: Len() = %d, reference %d", step, got, want)
		}
		if got, want := d.s.Now(), d.ref.now; got != want {
			t.Fatalf("op %d: Now() = %v, reference %v", step, got, want)
		}
	}
	for i := 0; i+3 < len(data); i += 4 {
		if err := d.op(data[i], data[i+1], data[i+2], data[i+3]); err != nil {
			t.Fatalf("op %d: %v", i/4, err)
		}
		check(i / 4)
	}
	for d.ref.step(1<<63 - 1) {
	}
	d.s.Run()
	check(len(data) / 4)
}

// TestQueueMatchesReference: random operation streams with many equal
// timestamps, keys and stamps fire in exactly the reference order.
func TestQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4*(50+rng.Intn(400)))
		rng.Read(data)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkQueueAgainstReference(t, data) })
	}
}

// FuzzQueueMatchesReference is the native fuzz target over the same harness:
//
//	go test -fuzz FuzzQueueMatchesReference ./internal/simtime
func FuzzQueueMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 1, 1, 1, 2, 0, 0, 2, 4, 0, 0, 0})
	f.Add([]byte{0, 12, 0, 4, 0, 13, 1, 0, 7, 3, 0, 0, 3, 0, 0, 0, 6, 13, 0, 0})
	f.Add([]byte{2, 5, 4, 1, 1, 5, 2, 2, 0, 5, 1, 0, 8, 6, 0, 0, 7, 5, 0, 0})
	f.Fuzz(checkQueueAgainstReference)
}

// The bucket index and the kind live in padding: adding the radix queue must
// not grow the Event past 80 bytes.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 80 {
		t.Fatalf("Event is %d bytes, want <= 80", n)
	}
}
