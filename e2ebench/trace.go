package main

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/simtime"
)

// The traced run attributes a simulation's wall-clock time to layers from
// outside the program. Three sources are combined:
//
//   - the scheduler's per-event-kind profiler (Sim.EnableProfiling), which
//     times every event callback by its kind;
//   - a wrapper around every spec link's destination host (Host.Receive),
//     which times the node/transport work inside each pkt-deliver event;
//   - a wrapper around every CM host's transmit notifier, which times the
//     Congestion Manager's per-packet charge wherever the IP output runs.
//
// A layer's self time is its own interval minus the wrapped intervals nested
// in it, so the layers never overlap and their sum plus unattributed_s is the
// traced run time.

// lane is the tracing state of one scheduler: the serial run's, or one
// shard's. Every wrapper of a host on that scheduler runs on the scheduler's
// goroutine, so a lane needs no locking.
type lane struct {
	sched *simtime.Scheduler
	prof  *simtime.Profile
	// running is set while RunToEnd executes; a charge outside it comes from
	// Sim.Start.
	running bool

	// inReceive and nested track the open wrapped Receive: the charge time
	// nested in it is subtracted from its self time.
	inReceive bool
	nested    time.Duration

	// A charge outside any Receive runs inside an event whose kind the
	// profiler records only when the event ends. pendEvent identifies that
	// event (Scheduler.Executed counts it before it fires) and pendSnap is the
	// profile before it ended; resolve finds the kind once it has.
	pending   bool
	pendEvent uint64
	pendSnap  simtime.ProfileSnapshot
	pendNs    time.Duration

	acc laneAcc
}

// laneAcc accumulates one lane's wrapped work.
type laneAcc struct {
	receive                      time.Duration // every wrapped Receive, nested charges included
	forward, tcpRx, udpRx, route time.Duration // Receive self time by packet class
	forwarded, routeMsgs         int64
	charge                       time.Duration
	chargeCalls                  int64
	startCharge                  time.Duration // charges made by Sim.Start
	kindCharge                   [simtime.NumKinds]time.Duration
	ambiguous                    int64
}

// resolve attributes a pending outside-Receive charge to the kind of the
// event that made it, once that event has ended. Packet transmit and deliver
// events never charge outside a Receive, so the candidates are the other
// kinds that ended since the charge; when several did, the charge is split by
// their event counts and counted as ambiguous. force resolves at the end of
// the run, when the last event has ended without a successor.
func (ln *lane) resolve(force bool) {
	if !ln.pending || (!force && ln.sched.Executed() == ln.pendEvent) {
		return
	}
	delta := ln.prof.Snapshot().Delta(ln.pendSnap)
	var total uint64
	var only simtime.Kind
	cands := 0
	for k := simtime.Kind(0); k < simtime.NumKinds; k++ {
		if k == simtime.KindPktTransmit || k == simtime.KindPktDeliver || delta[k].Count == 0 {
			continue
		}
		cands++
		only = k
		total += delta[k].Count
	}
	switch {
	case cands == 1:
		ln.acc.kindCharge[only] += ln.pendNs
	case cands == 0:
		ln.acc.kindCharge[simtime.KindOther] += ln.pendNs
		ln.acc.ambiguous++
	default:
		for k := simtime.Kind(0); k < simtime.NumKinds; k++ {
			if k == simtime.KindPktTransmit || k == simtime.KindPktDeliver || delta[k].Count == 0 {
				continue
			}
			ln.acc.kindCharge[k] += time.Duration(float64(ln.pendNs) * float64(delta[k].Count) / float64(total))
		}
		ln.acc.ambiguous++
	}
	ln.pending, ln.pendNs = false, 0
}

// tracedHost wraps a host as a link destination.
type tracedHost struct {
	h  *node.Host
	ln *lane
}

func (t *tracedHost) Receive(pkt *netsim.Packet) {
	ln := t.ln
	ln.resolve(false)
	// Classify before the call: the host releases the packet to the pool.
	transit := pkt.Dst.Host != t.h.Name()
	proto := pkt.Proto
	ln.inReceive, ln.nested = true, 0
	start := time.Now()
	t.h.Receive(pkt)
	d := time.Since(start)
	ln.inReceive = false
	self := d - ln.nested
	ln.acc.receive += d
	switch {
	case transit:
		ln.acc.forward += self
		ln.acc.forwarded++
	case proto == netsim.ProtoTCP:
		ln.acc.tcpRx += self
	case proto == netsim.ProtoUDP:
		ln.acc.udpRx += self
	case proto == netsim.ProtoRoute:
		ln.acc.route += self
		ln.acc.routeMsgs++
	}
	// Packets of any other protocol are left to unattributed_s.
}

// tracedNotifier wraps a host's Congestion Manager as its transmit notifier.
type tracedNotifier struct {
	n  node.TransmitNotifier
	ln *lane
}

func (t *tracedNotifier) NotifyTransmit(key netsim.FlowKey, nbytes int) {
	start := time.Now()
	t.n.NotifyTransmit(key, nbytes)
	d := time.Since(start)
	ln := t.ln
	ln.acc.charge += d
	ln.acc.chargeCalls++
	switch {
	case ln.inReceive:
		ln.nested += d
	case !ln.running:
		ln.acc.startCharge += d
	default:
		ev := ln.sched.Executed()
		if ln.pending && ln.pendEvent != ev {
			ln.resolve(false)
		}
		if !ln.pending {
			ln.pending, ln.pendEvent, ln.pendSnap = true, ev, ln.prof.Snapshot()
		}
		ln.pendNs += d
	}
}

// tracer holds the lanes of one traced simulation.
type tracer struct {
	sim   *scenario.Sim
	lanes []*lane
}

// installTracer arms profiling and the execution timeline, and wraps every
// spec link's destination and every CM host's notifier. It must run after
// Build and before Start. The wrappers only observe: the Result is the same
// as an untraced run's.
func installTracer(sim *scenario.Sim) *tracer {
	sim.EnableProfiling()
	sim.EnableExecutionTimeline()
	tr := &tracer{sim: sim}
	bySched := make(map[*simtime.Scheduler]*lane)
	laneOf := func(h *node.Host) *lane {
		ln := bySched[h.Clock()]
		if ln == nil {
			ln = &lane{sched: h.Clock(), prof: h.Clock().Profiling()}
			bySched[h.Clock()] = ln
			tr.lanes = append(tr.lanes, ln)
		}
		return ln
	}
	for i, ls := range sim.Spec.Links {
		d := sim.Duplex(i)
		a, b := sim.Host(ls.A), sim.Host(ls.B)
		d.Forward.SetDestination(&tracedHost{h: b, ln: laneOf(b)})
		d.Reverse.SetDestination(&tracedHost{h: a, ln: laneOf(a)})
	}
	for _, name := range sim.Nodes() {
		if c := sim.CM(name); c != nil {
			h := sim.Host(name)
			h.SetTransmitNotifier(&tracedNotifier{n: c, ln: laneOf(h)})
		}
	}
	return tr
}

func (tr *tracer) setRunning(on bool) {
	for _, ln := range tr.lanes {
		ln.running = on
		if !on {
			ln.resolve(true)
		}
	}
}

// layerTimes is one traced operation's per-layer breakdown, keyed by the
// per-layer metric names. Times are wall seconds averaged over the
// operation's parallel lanes (shards, or campaign workers), so that they add
// up to the traced run time; counts are totals.
type layerTimes struct {
	m         map[string]float64
	ambiguous int64 // charges whose event kind was split between candidates
}

// summands are the self times that, with unattributed_s, make up
// trace.run_s.
var summands = []string{
	"simtime.self_s", "netsim.transmit_s", "netsim.deliver_self_s", "node.forward_s",
	"tcp.rx_s", "udp.rx_s", "cm.charge_s", "cm.grant_s", "libcm.notify_s", "app.s",
	"routeproto.update_s", "dynamics.event_s", "scenario.build_s", "scenario.start_s",
	"scenario.finish_s", "scenario.shard_barrier_s", "sweep.idle_s",
}

func (l *layerTimes) unattributed() float64 {
	u := l.m["trace.run_s"]
	for _, s := range summands {
		u -= l.m[s]
	}
	return u
}

// add accumulates another operation's breakdown (campaign specs).
func (l *layerTimes) add(o *layerTimes) {
	for k, v := range o.m {
		l.m[k] += v
	}
	l.ambiguous += o.ambiguous
}

// scale divides every time by n parallel lanes.
func (l *layerTimes) scale(n float64) {
	for k := range l.m {
		if perLayerUnits[k] == "s" {
			l.m[k] /= n
		}
	}
}

// breakdown computes the layer times of a finished traced simulation from
// its lanes and the wall times runSim measured around Start, RunToEnd
// and Finish.
func (tr *tracer) breakdown(start, runToEnd, finish time.Duration, res *scenario.Result) *layerTimes {
	l := &layerTimes{m: map[string]float64{"scenario.shards": float64(tr.sim.ShardCount())}}
	add := func(name string, d time.Duration) { l.m[name] += d.Seconds() }
	count := func(name string, n int64) { l.m[name] += float64(n) }
	// Each lane is busy during its scheduler spans (a serial run's single
	// "run" span, or a shard's windows) and waits for the rest of RunToEnd:
	// at barriers, and for the slower shard.
	busy := make(map[*simtime.Scheduler]time.Duration)
	spans := tr.sim.ExecutionTimeline().Spans()
	for _, ln := range tr.lanes {
		lane := tr.laneIndex(ln)
		for _, sp := range spans {
			if sp.Lane == lane && (sp.Name == "window" || sp.Name == "run") {
				busy[ln.sched] += sp.Dur
				if lane == 0 {
					count("scenario.shard_windows", 1)
				}
			}
		}
	}
	var startCharge time.Duration
	for _, ln := range tr.lanes {
		snap := ln.prof.Snapshot()
		kind := func(k simtime.Kind) time.Duration {
			return time.Duration(snap[k].TotalNs) - ln.acc.kindCharge[k]
		}
		b := busy[ln.sched]
		add("scenario.shard_busy_s", b)
		add("scenario.shard_barrier_s", runToEnd-b)
		add("simtime.self_s", b-time.Duration(snap.TotalNs()))
		add("netsim.transmit_s", kind(simtime.KindPktTransmit))
		add("netsim.deliver_self_s", time.Duration(snap[simtime.KindPktDeliver].TotalNs)-ln.acc.receive)
		add("node.forward_s", ln.acc.forward)
		add("tcp.rx_s", ln.acc.tcpRx)
		add("udp.rx_s", ln.acc.udpRx)
		add("cm.charge_s", ln.acc.charge)
		add("cm.grant_s", kind(simtime.KindCMGrant))
		add("libcm.notify_s", kind(simtime.KindCMNotify))
		add("app.s", kind(simtime.KindWorkloadApp))
		add("routeproto.update_s", kind(simtime.KindRouteUpdate)+ln.acc.route)
		add("dynamics.event_s", kind(simtime.KindDynamics))
		count("simtime.events", int64(snap.Events()))
		count("node.forwarded", ln.acc.forwarded)
		count("cm.charge_calls", ln.acc.chargeCalls)
		count("routeproto.messages", ln.acc.routeMsgs)
		l.ambiguous += ln.acc.ambiguous
		startCharge += ln.acc.startCharge
	}
	l.scale(float64(len(tr.lanes)))
	// Start and Finish run on one goroutine whatever the lane count.
	add("scenario.start_s", start-startCharge)
	add("cm.charge_s", startCharge)
	add("scenario.finish_s", finish)
	add("trace.run_s", start+runToEnd+finish)
	for _, lr := range res.Links {
		count("netsim.drops", int64(lr.RandomDrops+lr.DownDrops+lr.QueueDrops))
	}
	for _, c := range res.CMs {
		count("cm.restarts", c.Restarts)
		count("libcm.dropped", c.DroppedSends+c.DroppedUpdates)
	}
	return l
}

// laneIndex maps a lane to its shard index (the execution timeline's lane).
func (tr *tracer) laneIndex(ln *lane) int {
	for _, name := range tr.sim.Nodes() {
		if h := tr.sim.Host(name); h.Clock() == ln.sched {
			return tr.sim.ShardOf(name)
		}
	}
	return -1
}
