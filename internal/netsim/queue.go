package netsim

import "fmt"

// DropPolicy selects which packet a full queue discards.
type DropPolicy int

const (
	// DropTail discards the arriving packet when the queue is full. This is
	// the de-facto standard for router buffers that the paper calls out.
	DropTail DropPolicy = iota
	// DropHead discards the oldest queued packet to make room for the
	// arriving one. The paper's adaptive vat application uses
	// drop-from-head behaviour in its application-level buffer.
	DropHead
)

// String names the drop policy.
func (p DropPolicy) String() string {
	switch p {
	case DropTail:
		return "drop-tail"
	case DropHead:
		return "drop-head"
	default:
		return fmt.Sprintf("drop-policy(%d)", int(p))
	}
}

// Control-plane headroom: a queue at its configured limit still admits up to
// RouteReservePackets routing-protocol (ProtoRoute) packets — and, on
// byte-limited queues, RouteReserveBytes extra bytes — beyond it. Without the
// reserve, a data flow saturating a drop-tail buffer starves the control
// plane outright: every periodic refresh tail-drops, the downstream peer ages
// out its entire table, and the "converged" network blackholes itself. Real
// routers solve this the same way, with dedicated buffer for internetwork-
// control traffic. Nothing but the routing protocol sends ProtoRoute, so the
// reserve is invisible to every data-only scenario.
const (
	RouteReservePackets = 8
	RouteReserveBytes   = 16 << 10
)

// QueueStats are cumulative counters maintained by a Queue.
type QueueStats struct {
	EnqueuedPackets int
	EnqueuedBytes   int64
	DroppedPackets  int
	DroppedBytes    int64
	DequeuedPackets int
	DequeuedBytes   int64
	ECNMarked       int
	MaxDepthPackets int
	MaxDepthBytes   int
}

// Queue is a finite FIFO packet buffer with configurable limits and drop
// policy, standing in for a router or NIC transmit buffer.
//
// Limits may be expressed in packets, bytes, or both; a zero limit means
// "unlimited" in that dimension, but at least one limit must be set.
//
// The buffer is a ring: enqueue and dequeue are O(1) and allocation-free in
// steady state. The ring is allocated on the first enqueue at the packet
// limit or 16 slots, whichever is smaller, and grows by doubling (capped at
// the packet limit) until the working depth is reached — a link that never
// queues a packet, like most of a 100k-host topology's last-mile links,
// holds no ring at all.
type Queue struct {
	limitPackets int
	limitBytes   int
	policy       DropPolicy

	// ECN configuration: when ECNThresholdPackets > 0 and an arriving
	// ECN-capable packet finds the queue at or above the threshold, the
	// packet is marked CE instead of being dropped on overflow.
	ecnThresholdPackets int

	buf   []*Packet // ring buffer of queued packets, nil until the first enqueue
	head  int       // index of the oldest packet
	count int       // number of queued packets
	bytes int
	stats QueueStats
}

// NewQueue returns a queue limited to limitPackets packets and limitBytes
// bytes (zero disables the respective limit). It panics if both limits are
// zero or either is negative.
func NewQueue(limitPackets, limitBytes int, policy DropPolicy) *Queue {
	q := makeQueue(limitPackets, limitBytes, policy)
	return &q
}

// makeQueue is NewQueue by value, for owners (links) that embed their queue.
func makeQueue(limitPackets, limitBytes int, policy DropPolicy) Queue {
	if limitPackets < 0 || limitBytes < 0 {
		panic("netsim: negative queue limit")
	}
	if limitPackets == 0 && limitBytes == 0 {
		panic("netsim: queue needs at least one limit")
	}
	return Queue{limitPackets: limitPackets, limitBytes: limitBytes, policy: policy}
}

// SetECNThreshold enables ECN marking: ECN-capable packets arriving when the
// queue holds at least thresholdPackets packets are marked CE. A zero
// threshold disables marking.
func (q *Queue) SetECNThreshold(thresholdPackets int) {
	q.ecnThresholdPackets = thresholdPackets
}

// Len returns the number of queued packets.
func (q *Queue) Len() int { return q.count }

// Bytes returns the number of queued bytes.
func (q *Queue) Bytes() int { return q.bytes }

// Stats returns a copy of the cumulative counters.
func (q *Queue) Stats() QueueStats { return q.stats }

// Policy returns the queue's drop policy.
func (q *Queue) Policy() DropPolicy { return q.policy }

func (q *Queue) wouldOverflow(p *Packet) bool {
	lp, lb := q.limitPackets, q.limitBytes
	if p.Proto == ProtoRoute {
		// Routing packets may dip into the control-plane reserve.
		if lp > 0 {
			lp += RouteReservePackets
		}
		if lb > 0 {
			lb += RouteReserveBytes
		}
	}
	if lp > 0 && q.count+1 > lp {
		return true
	}
	if lb > 0 && q.bytes+p.Size > lb {
		return true
	}
	return false
}

// popHead removes and returns the oldest packet without touching statistics.
// The caller guarantees the queue is non-empty.
func (q *Queue) popHead() *Packet {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.count--
	q.bytes -= p.Size
	return p
}

// pushTail appends the packet, growing the ring if it is full. The first
// push allocates the ring at the packet limit or 16 slots, whichever is
// smaller (16 for a byte-limited queue: start small and grow on demand).
// Growth is amortised doubling, capped at the packet limit plus the
// control-plane reserve for packet-limited queues (wouldOverflow guarantees
// count never exceeds that).
func (q *Queue) pushTail(p *Packet) {
	if q.count == len(q.buf) {
		newCap := 2 * len(q.buf)
		if newCap == 0 {
			newCap = 16
			if q.limitPackets > 0 && q.limitPackets < newCap {
				newCap = q.limitPackets
			}
		} else if q.limitPackets > 0 && newCap > q.limitPackets+RouteReservePackets {
			newCap = q.limitPackets + RouteReservePackets
		}
		grown := make([]*Packet, newCap)
		n := copy(grown, q.buf[q.head:])
		copy(grown[n:], q.buf[:q.head])
		q.buf = grown
		q.head = 0
	}
	tail := q.head + q.count
	if tail >= len(q.buf) {
		tail -= len(q.buf)
	}
	q.buf[tail] = p
	q.count++
	q.bytes += p.Size
}

// Enqueue appends the packet, applying the drop policy on overflow. It
// returns the dropped packet (which may be the argument itself under
// drop-tail, or an older packet under drop-head) or nil if nothing was
// dropped.
//
// A drop-head overflow on a byte-limited queue can evict several packets to
// admit one large arrival; only the last victim is returned, and the queue
// releases the earlier ones back to the pool itself (they are still counted
// in DroppedPackets/DroppedBytes).
func (q *Queue) Enqueue(p *Packet) (dropped *Packet) {
	if p == nil {
		panic("netsim: Enqueue(nil)")
	}
	// ECN marking happens on arrival based on current occupancy, before any
	// drop decision, so marked packets still convey congestion when the
	// queue later drains.
	if q.ecnThresholdPackets > 0 && p.ECT && q.count >= q.ecnThresholdPackets {
		if !p.CE {
			p.CE = true
			q.stats.ECNMarked++
		}
	}
	for q.wouldOverflow(p) {
		switch q.policy {
		case DropHead:
			if q.count == 0 {
				// The arriving packet alone exceeds the byte limit.
				dropped.Release()
				q.recordDrop(p)
				return p
			}
			victim := q.popHead()
			q.recordDrop(victim)
			// Multiple evictions for one arrival: only the final victim is
			// handed to the caller, so release the superseded one here.
			dropped.Release()
			dropped = victim
		default: // DropTail
			q.recordDrop(p)
			return p
		}
	}
	q.pushTail(p)
	q.stats.EnqueuedPackets++
	q.stats.EnqueuedBytes += int64(p.Size)
	if q.count > q.stats.MaxDepthPackets {
		q.stats.MaxDepthPackets = q.count
	}
	if q.bytes > q.stats.MaxDepthBytes {
		q.stats.MaxDepthBytes = q.bytes
	}
	return dropped
}

func (q *Queue) recordDrop(p *Packet) {
	q.stats.DroppedPackets++
	q.stats.DroppedBytes += int64(p.Size)
}

// Dequeue removes and returns the oldest packet, or nil if the queue is
// empty.
func (q *Queue) Dequeue() *Packet {
	if q.count == 0 {
		return nil
	}
	p := q.popHead()
	q.stats.DequeuedPackets++
	q.stats.DequeuedBytes += int64(p.Size)
	return p
}

// Peek returns the oldest packet without removing it, or nil if empty.
func (q *Queue) Peek() *Packet {
	if q.count == 0 {
		return nil
	}
	return q.buf[q.head]
}
