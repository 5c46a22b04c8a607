package gpu

import "sync"

// This file is the asynchronous stream/event execution engine on top of
// the synchronous ledger. The paper's implementation hides cost by
// pipelining: halo transfers overlap local SpMV inside the matrix powers
// kernel, and the CPU's small Hessenberg/Givens work overlaps device
// GEMMs. The barrier model of context.go cannot express that — every
// round is a full synchronization, so modeled time is the *sum* of phase
// maxima.
//
// The Timeline gives each simulated device two ordered streams (compute
// and transfer) plus one host stream, exactly the CUDA stream model the
// paper programs against. Every charging call becomes an operation
// submitted to its streams: it starts no earlier than (a) the current
// cursor of each stream it occupies, (b) its explicit StreamEvent
// dependencies, and (c) for host-to-device rounds and host compute, the
// time the host last *received* data (hostData — a device-to-host round
// delivers its payload at its finish, and the host cannot forward or
// consume values that have not arrived). The modeled makespan is then
// the critical path through the dependency DAG (Horizon), not the sum
// of barrier maxima (SerialTime).
//
// Two invariants make the engine safe to adopt incrementally:
//
//  1. The ledger (Stats) is charged identically in every mode. Overlap
//     changes *when* operations are scheduled, never *what* they cost,
//     so every existing golden table, CSV and property test is
//     untouched.
//
//  2. With overlap disabled (the default), every operation — whether or
//     not its Op sets Sync — degrades to a full barrier: all cursors
//     advance in lockstep and Horizon() == SerialTime() bit-for-bit. The
//     synchronous schedule is literally the single-stream case of the
//     engine, and Sync is how a caller asks for that case per operation.
//
// Horizon() can never exceed SerialTime(): each operation starts at a
// maximum of cursors and event times that are themselves bounded by the
// serial accumulator, and float addition is monotone, so the bound holds
// exactly in floating point, not just in exact arithmetic.

// StreamEvent marks the completion time of a submitted operation on the
// timeline. The zero value is an event at time zero (no constraint).
// Events are values — they can be stored, passed across package
// boundaries and used as dependencies of any later operation.
type StreamEvent struct {
	at float64
}

// Seconds returns the event's completion time on the modeled clock.
func (e StreamEvent) Seconds() float64 { return e.at }

// Join returns an event at the latest of the given events (a barrier on
// just that set).
func Join(evs ...StreamEvent) StreamEvent {
	var at float64
	for _, e := range evs {
		if e.at > at {
			at = e.at
		}
	}
	return StreamEvent{at: at}
}

// LaneKind identifies one per-stream accounting lane of the timeline.
type LaneKind int

// Lanes: each device's compute stream and transfer stream, the host
// compute stream, and the shared bus lane fault retries are charged to.
const (
	LaneCompute LaneKind = iota
	LaneTransfer
	LaneHost
	LaneFault
)

type laneKey struct {
	kind   LaneKind
	device int
	phase  string
}

// Timeline is the per-stream clock state of one context tree (a root
// context and all Survivors views derived from it share one timeline,
// just like they share one Stats ledger). All methods are safe for
// concurrent use, though charges are serialized by the orchestrating
// goroutine in practice.
type Timeline struct {
	mu       sync.Mutex
	overlap  bool
	compute  []float64 // per physical device compute-stream cursor
	transfer []float64 // per physical device transfer-stream cursor
	host     float64   // host compute-stream cursor
	hostData float64   // latest time the host received data (last D2H finish)
	serial   float64   // what the barrier schedule would have accumulated
	lanes    map[laneKey]float64
}

func newTimeline(overlap bool) *Timeline {
	return &Timeline{overlap: overlap, lanes: make(map[laneKey]float64)}
}

// cursorAt reads a per-device cursor, growing the slice on demand so
// Survivors views addressing sparse physical ids stay in bounds.
func cursorAt(s *[]float64, d int) float64 {
	for len(*s) <= d {
		*s = append(*s, 0)
	}
	return (*s)[d]
}

func setCursor(s *[]float64, d int, v float64) {
	for len(*s) <= d {
		*s = append(*s, 0)
	}
	(*s)[d] = v
}

// maxAllLocked returns the latest cursor across every stream.
func (tl *Timeline) maxAllLocked() float64 {
	m := tl.host
	if tl.hostData > m {
		m = tl.hostData
	}
	for _, v := range tl.compute {
		if v > m {
			m = v
		}
	}
	for _, v := range tl.transfer {
		if v > m {
			m = v
		}
	}
	return m
}

// advanceAllLocked moves every cursor to t — a full barrier.
func (tl *Timeline) advanceAllLocked(t float64) {
	for i := range tl.compute {
		if tl.compute[i] < t {
			tl.compute[i] = t
		}
	}
	for i := range tl.transfer {
		if tl.transfer[i] < t {
			tl.transfer[i] = t
		}
	}
	if tl.host < t {
		tl.host = t
	}
	if tl.hostData < t {
		tl.hostData = t
	}
}

// hostEdge is an operation's relation to the data the host holds.
type hostEdge int

const (
	// edgeNone: device kernels and peer rounds never touch the host.
	edgeNone hostEdge = iota
	// edgeWait: host-to-device rounds and host compute cannot start
	// before the host holds the data they relay or consume (start >=
	// hostData).
	edgeWait
	// edgeDeliver: a device-to-host round delivers its payload to the
	// host at its finish (advancing hostData).
	edgeDeliver
)

// submit schedules one operation of duration ts (+stall of faulted
// retries) on the streams of one lane:
//
//   - LaneCompute: device devs[i] is busy for ts[i] on its own compute
//     stream, starting at its own cursor;
//   - LaneTransfer: one round of ts[0] occupying the transfer streams of
//     every device in devs, starting once all of them are free;
//   - LaneHost: ts[0] on the host stream (devs is {HostDevice}).
//
// Barrier operations (sync, or any operation with overlap disabled)
// start at the global maximum and drag every cursor to their finish.
func (tl *Timeline) submit(lane LaneKind, edge hostEdge, phase string, devs []int, ts []float64, stall float64, after StreamEvent, sync bool) StreamEvent {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	sync = sync || !tl.overlap
	var span float64
	for _, t := range ts {
		if t > span {
			span = t
		}
	}
	span += stall
	start := after.at
	switch {
	case sync:
		start = max(start, tl.maxAllLocked())
	case lane == LaneTransfer:
		for _, d := range devs {
			start = max(start, cursorAt(&tl.transfer, d))
		}
	case lane == LaneHost:
		start = max(start, tl.host)
	}
	if !sync && edge == edgeWait {
		start = max(start, tl.hostData)
	}
	fin := start + span
	switch lane {
	case LaneCompute:
		// Each device's share starts at its own compute cursor; a barrier
		// then drags every cursor to the slowest device's finish.
		var last float64
		for i, d := range devs {
			f := max(start, cursorAt(&tl.compute, d)) + ts[i]
			setCursor(&tl.compute, d, f)
			last = max(last, f)
		}
		if !sync {
			fin = last
		}
	case LaneTransfer:
		for _, d := range devs {
			setCursor(&tl.transfer, d, fin)
		}
	case LaneHost:
		tl.host = fin
	}
	if sync {
		tl.advanceAllLocked(fin)
	} else if edge == edgeDeliver && fin > tl.hostData {
		tl.hostData = fin
	}
	for i, d := range devs {
		t := ts[0]
		if lane == LaneCompute {
			t = ts[i]
		}
		tl.lanes[laneKey{lane, d, phase}] += t
	}
	tl.serial += span
	return StreamEvent{at: fin}
}

// chargeFault records one faulted-transfer retry (wasted round + backoff)
// on the shared bus lane, mirroring the ledger's "fault" phase charge in
// the same order so the two reconcile exactly.
func (tl *Timeline) chargeFault(t float64) {
	tl.mu.Lock()
	tl.lanes[laneKey{LaneFault, HostDevice, PhaseFault}] += t
	tl.mu.Unlock()
}

func (tl *Timeline) horizon() float64 {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.maxAllLocked()
}

func (tl *Timeline) serialTime() float64 {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.serial
}

func (tl *Timeline) overlapEnabled() bool {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.overlap
}

func (tl *Timeline) lane(kind LaneKind, device int, phase string) float64 {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.lanes[laneKey{kind, device, phase}]
}

func (tl *Timeline) fence(kind LaneKind) StreamEvent {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	var m float64
	switch kind {
	case LaneCompute:
		for _, v := range tl.compute {
			if v > m {
				m = v
			}
		}
	case LaneTransfer:
		for _, v := range tl.transfer {
			if v > m {
				m = v
			}
		}
	case LaneHost:
		m = tl.host
		if tl.hostData > m {
			m = tl.hostData
		}
	}
	return StreamEvent{at: m}
}

// --- Context surface -------------------------------------------------------

// SetOverlap enables (true) or disables (false) overlapped scheduling on
// this context tree. With overlap off — the default — every operation is
// a full barrier and the engine reproduces the synchronous schedule
// exactly. Set it on the root context before a
// run; Survivors views share the root's timeline.
func (c *Context) SetOverlap(on bool) {
	c.timeline.mu.Lock()
	c.timeline.overlap = on
	c.timeline.mu.Unlock()
}

// OverlapEnabled reports whether overlapped scheduling is on.
func (c *Context) OverlapEnabled() bool { return c.timeline.overlapEnabled() }

// OverlappedTime returns the modeled makespan of the executed schedule:
// the latest cursor over every stream (the critical path through the
// dependency DAG). With overlap disabled it equals SerialTime exactly.
func (c *Context) OverlappedTime() float64 { return c.timeline.horizon() }

// SerialTime returns the modeled time the fully synchronous (barrier)
// schedule would have taken for the same sequence of operations — the
// baseline the overlap speedup is measured against.
func (c *Context) SerialTime() float64 { return c.timeline.serialTime() }

// LaneTime returns the accumulated busy time of one accounting lane:
// (LaneCompute, d, phase) is device d's kernel time in the phase and
// reconciles exactly with Stats.DevicePhase(d, phase).DeviceTime;
// (LaneTransfer, d, phase) reconciles with .CommTime; (LaneHost,
// HostDevice, phase) with Stats.Phase(phase).HostTime; and (LaneFault,
// HostDevice, PhaseFault) with the ledger's fault-phase CommTime.
func (c *Context) LaneTime(kind LaneKind, device int, phase string) float64 {
	return c.timeline.lane(kind, device, phase)
}

// ComputeFence returns an event at the latest compute-stream cursor — a
// conservative dependency on "every device kernel submitted so far".
func (c *Context) ComputeFence() StreamEvent { return c.timeline.fence(LaneCompute) }

// TransferFence returns an event at the latest transfer-stream cursor.
func (c *Context) TransferFence() StreamEvent { return c.timeline.fence(LaneTransfer) }

// HostFence returns an event at the host stream's cursor (including the
// last time data arrived from the devices) — a conservative dependency
// on "everything the host has computed or received so far".
func (c *Context) HostFence() StreamEvent { return c.timeline.fence(LaneHost) }
