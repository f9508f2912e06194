package main

import (
	"container/heap"
	"strconv"
	"time"
)

// The machine's speed drifts: on a shared host, other tenants' use of the
// caches changes how fast this kind of code runs by up to 40% from one
// quarter-hour to the next, while a benchmark run lasts seconds. The kernel
// below does the simulator's kind of work — a pointer-based event heap and
// string-keyed map lookups — in code that never changes with the simulator,
// so its time tracks the machine alone. The end-to-end times are scaled by
// refKernel ÷ the run's median kernel time: they read as seconds on a
// machine running the kernel in refKernel.

// refKernel is the kernel's median time on the 2-vCPU Intel Xeon container
// the benchmark was defined on.
const refKernel = 20 * time.Millisecond

type kernelItem struct {
	at  int64
	key string
}

type kernelHeap []*kernelItem

func (q kernelHeap) Len() int           { return len(q) }
func (q kernelHeap) Less(i, j int) bool { return q[i].at < q[j].at }
func (q kernelHeap) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *kernelHeap) Push(x any)        { *q = append(*q, x.(*kernelItem)) }
func (q *kernelHeap) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// kernelSink keeps the kernel's result live.
var kernelSink int

// kernel runs the fixed calibration work once and returns its time.
func kernel() time.Duration {
	start := time.Now()
	const nkeys = 512
	keys := make([]string, nkeys)
	index := make(map[string]int, nkeys)
	for i := range keys {
		keys[i] = "h" + strconv.Itoa(i) + ".x" + strconv.Itoa(i%25)
		index[keys[i]] = i
	}
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	q := &kernelHeap{}
	for i := 0; i < 2000; i++ {
		heap.Push(q, &kernelItem{at: int64(next() % 1000), key: keys[i%nkeys]})
	}
	sum := 0
	for i := 0; i < 50_000; i++ {
		it := heap.Pop(q).(*kernelItem)
		sum += index[it.key]
		r := next()
		heap.Push(q, &kernelItem{at: it.at + int64(r%1000), key: keys[r%nkeys]})
	}
	kernelSink += sum
	return time.Since(start)
}
