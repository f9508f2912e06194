package libcm

import (
	"testing"
	"time"

	"repro/internal/cm"
	"repro/internal/netsim"
)

// TestDroppedSendGrantDoesNotStrandFlow: a cmapp_send notification lost on
// the kernel/user crossing kills that grant, but the flow must stay usable —
// a fresh cm_request gets a fresh grant through.
func TestDroppedSendGrantDoesNotStrandFlow(t *testing.T) {
	s, c, l := setup(t, ModeAuto)
	in := NewInjector(42)
	l.SetInjector(in)
	src, dst := addrs(70)
	f := l.Open(netsim.ProtoUDP, src, dst)
	var sends int
	l.RegisterSend(f, func(cm.FlowID) { sends++ })

	in.SetRates(1, 0, 0) // drop everything
	l.Request(f)
	s.RunFor(10 * time.Millisecond)
	if sends != 0 {
		t.Fatal("dropped notification still delivered a callback")
	}
	if in.Stats().DroppedSends != 1 {
		t.Fatalf("DroppedSends = %d", in.Stats().DroppedSends)
	}

	// The application's recovery move is simply to ask again. The dead grant
	// still occupies the 1-MTU initial window, so the re-request is granted
	// once the CM's grant timeout (500ms) reclaims it.
	in.SetRates(0, 0, 0)
	l.Request(f)
	s.RunFor(2 * time.Second)
	if sends != 1 {
		t.Fatalf("re-request after a dropped grant delivered %d callbacks, want 1", sends)
	}
	if audit := c.Audit(); audit.NegativePending != 0 {
		t.Fatalf("pending-request accounting corrupted: %+v", audit)
	}
}

// TestDelayedSendIsDeliveredLate: a delayed cmapp_send arrives after the
// injected latency instead of being lost.
func TestDelayedSendIsDeliveredLate(t *testing.T) {
	s, _, l := setup(t, ModeAuto)
	in := NewInjector(42)
	l.SetInjector(in)
	src, dst := addrs(71)
	f := l.Open(netsim.ProtoUDP, src, dst)
	var sends int
	l.RegisterSend(f, func(cm.FlowID) { sends++ })

	in.SetRates(0, 1, 5*time.Millisecond)
	l.Request(f)
	s.RunFor(2 * time.Millisecond)
	if sends != 0 {
		t.Fatal("delayed notification arrived early")
	}
	s.RunFor(10 * time.Millisecond)
	if sends != 1 || in.Stats().DelayedSends != 1 {
		t.Fatalf("sends = %d, DelayedSends = %d", sends, in.Stats().DelayedSends)
	}
}

// TestDelayedUpdateNeverOverwritesNewerStatus: a cmapp_update delayed across
// a newer delivery must be discarded on arrival, not applied over the newer
// rate (the paper's rate callbacks promise the *current* sending rate).
func TestDelayedUpdateNeverOverwritesNewerStatus(t *testing.T) {
	s, c, l := setup(t, ModeManual)
	in := NewInjector(42)
	l.SetInjector(in)
	src, dst := addrs(72)
	f := l.Open(netsim.ProtoUDP, src, dst)
	var got []cm.Status
	l.RegisterUpdate(f, func(_ cm.FlowID, st cm.Status) { got = append(got, st) })
	l.Thresh(f, 1.0001, 1.0001) // report every change

	// First status change is delayed in flight...
	in.SetRates(0, 1, 5*time.Millisecond)
	c.Update(f, 1000, 1000, cm.NoLoss, 100*time.Millisecond)
	// ...and a second, newer one — a large RTT change, so it certainly
	// crosses the report threshold — overtakes it.
	in.SetRates(0, 0, 0)
	c.Update(f, 1000, 1000, cm.NoLoss, 10*time.Millisecond)
	s.RunFor(time.Millisecond)
	l.Dispatch()
	if len(got) != 1 {
		t.Fatalf("got %d statuses before the delayed arrival, want 1", len(got))
	}
	newest, _ := c.Query(f)
	if got[0].SRTT != newest.SRTT {
		t.Fatalf("delivered status is not the newest: %+v vs %+v", got[0], newest)
	}

	// The stale delivery lands now; it must be dropped, not dispatched.
	s.RunFor(10 * time.Millisecond)
	if l.Dispatch() != 0 {
		t.Fatal("stale delayed update was dispatched")
	}
	if in.Stats().StaleUpdatesDropped != 1 {
		t.Fatalf("StaleUpdatesDropped = %d, want 1", in.Stats().StaleUpdatesDropped)
	}
	if len(got) != 1 {
		t.Fatalf("stale status reached the application: %+v", got)
	}
}

// TestLibResyncsAfterCMRestart: any libcm call after a CM restart first
// re-syncs the library (dead callbacks and queued notifications cleared, the
// restart handler told to re-open), instead of operating on dead handles.
func TestLibResyncsAfterCMRestart(t *testing.T) {
	s, c, l := setup(t, ModeAuto)
	src, dst := addrs(73)
	f := l.Open(netsim.ProtoUDP, src, dst)
	var restarts int
	var reopened cm.FlowID
	l.SetRestartHandler(func() {
		restarts++
		reopened = l.Open(netsim.ProtoUDP, src, dst)
		l.RegisterSend(reopened, func(cm.FlowID) {})
	})
	l.RegisterSend(f, func(cm.FlowID) { t.Error("callback for a pre-restart flow") })
	l.Request(f)

	c.Restart()
	// The queued pre-restart grant must not be dispatched after the resync.
	l.Request(f) // triggers checkEpoch; f is stale and the call is a miss
	s.RunFor(10 * time.Millisecond)

	if restarts != 1 || l.Stats().Resyncs != 1 {
		t.Fatalf("restarts = %d, Resyncs = %d", restarts, l.Stats().Resyncs)
	}
	if reopened == f || reopened == 0 {
		t.Fatalf("restart handler reopened %v (old %v)", reopened, f)
	}
	if _, ok := l.Query(reopened); !ok {
		t.Fatal("reopened flow unusable")
	}
	if c.Accounting().StaleFlowCalls == 0 {
		t.Fatal("the stale Request should have been counted")
	}
	_ = s
}

// TestUpdateFaultsFollowFlowOrder: when one rate change crosses the report
// threshold of several flows in a macroflow, each delivery draws its own
// fault verdict, so which flow's update is dropped depends on the order the
// macroflow visits its flows. That order is FlowID order, so repeated runs
// drop exactly the same updates.
func TestUpdateFaultsFollowFlowOrder(t *testing.T) {
	run := func() string {
		_, c, l := setup(t, ModeManual)
		in := NewInjector(7)
		l.SetInjector(in)
		var flows [2]cm.FlowID
		var got [2]int
		for i := range flows {
			src, dst := addrs(90 + i) // one destination host: one macroflow
			flows[i] = l.Open(netsim.ProtoUDP, src, dst)
			l.RegisterUpdate(flows[i], func(cm.FlowID, cm.Status) { got[i]++ })
			l.Thresh(flows[i], 1.0001, 1.0001) // report every change
		}
		in.SetRates(0.5, 0, 0)
		var trace []byte
		for r := 0; r < 20; r++ {
			c.Update(flows[0], 1000, 1000, cm.NoLoss, time.Duration(10+r)*time.Millisecond)
			got = [2]int{}
			l.Dispatch()
			for _, n := range got {
				trace = append(trace, byte('0'+n))
			}
		}
		if in.Stats().DroppedUpdates == 0 {
			t.Fatal("no update was dropped at rate 0.5")
		}
		return string(trace)
	}
	want := run()
	for rep := 1; rep < 20; rep++ {
		if got := run(); got != want {
			t.Fatalf("repetition %d delivered updates %s, first run %s", rep, got, want)
		}
	}
}
