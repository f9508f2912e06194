package simtime

import (
	"testing"
	"time"
)

// BenchmarkScheduleFire measures one schedule+fire cycle, the atom every
// simulated component is built from.
func BenchmarkScheduleFire(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, fn)
		s.Step()
	}
}

// BenchmarkScaleEventChurn keeps a dense population of pending timers (as a
// large experiment does: one RTO and one delayed-ack timer per connection)
// while scheduling, cancelling and firing events against that backdrop.
func BenchmarkScaleEventChurn(b *testing.B) {
	const population = 4096
	s := NewScheduler()
	fn := func() {}
	// A standing population of far-future events that are cancelled and
	// rescheduled but never fire, so their handles stay valid.
	events := make([]*Event, population)
	for i := range events {
		events[i] = s.At(time.Hour+time.Duration(i)*time.Millisecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % population
		// Cancel a pending event (eager heap removal) and replace it.
		events[slot].Cancel()
		events[slot] = s.At(time.Hour, fn)
		// Fire one immediate event with the full population pending.
		s.After(0, fn)
		s.Step()
	}
}

// BenchmarkScaleTimerWheel1k drives 1k+ independent timers through repeated
// Reset cycles, the pattern of per-connection retransmission timers.
func BenchmarkScaleTimerWheel1k(b *testing.B) {
	const timers = 1024
	s := NewScheduler()
	tms := make([]Timer, timers)
	for i := range tms {
		tms[i] = s.NewTimer(func() {})
		tms[i].Reset(time.Duration(i+1) * time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tms[i%timers].Reset(time.Duration(timers) * time.Millisecond)
		if i%4 == 0 {
			s.Step()
		}
	}
}

// BenchmarkShardWindow4k runs the sharded-window pattern against a standing
// population of far-future events: each window schedules and drains one
// event with RunUntilBefore, and AdvanceTo then checks that nothing earlier
// than the window end is left. Both peek at the far-future bucket without
// running it, so this pins the cost of a peek that does not move the queue.
func BenchmarkShardWindow4k(b *testing.B) {
	const population = 4096
	const window = 50 * time.Microsecond
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < population; i++ {
		s.At(time.Hour+time.Duration(i)*time.Millisecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		end := s.Now() + window
		s.After(window/2, fn)
		s.RunUntilBefore(end)
		s.AdvanceTo(end)
	}
}
