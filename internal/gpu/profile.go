package gpu

import "fmt"

// This file makes the machine description a first-class, swappable
// value. Historically the simulator was hard-wired to the paper's 2014
// testbed (M2090 GPUs sharing one PCIe 2.0 hub through the host); a
// Profile bundles the per-device compute constants (CostModel) with an
// explicit interconnect Topology, so the same solver program can be
// costed on a modern PCIe-switch or NVLink-ring box — and so
// device-to-device halo exchange can route peer-to-peer instead of
// bouncing through the host, the MGSim/MGMark observation that topology,
// not device count, bounds multi-GPU scaling.
//
// Profiles reorder *time*, never arithmetic: every kernel still executes
// exactly, so iterates and convergence histories are bit-identical
// across profiles. Only the ledger charges change.

// TopoKind names an interconnect topology.
type TopoKind string

// The shipped topology kinds.
const (
	// TopoHostHub is the paper's machine: every device hangs off one
	// shared PCIe segment behind the host, and device-to-device traffic
	// bounces through host memory (a D2H round then an H2D round). The
	// default — and the only kind the pre-profile simulator could model.
	TopoHostHub TopoKind = "host-hub"
	// TopoPCIeSwitch gives each device a private full-duplex link to a
	// non-blocking PCIe switch: peer traffic crosses the switch without
	// touching the host, and a round costs one peer latency plus the most
	// loaded device link.
	TopoPCIeSwitch TopoKind = "pcie-switch"
	// TopoNVLinkRing joins the devices in a physical ring of NVLink-class
	// links. Peer traffic takes the shortest arc (ties go clockwise),
	// loading every link it crosses; a round costs the hop count times
	// the peer latency plus the most loaded directed link.
	TopoNVLinkRing TopoKind = "nvlink-ring"
	// TopoAllToAll gives every device pair a dedicated link (NVSwitch-like
	// full fabric): one peer latency plus the largest single pair volume.
	TopoAllToAll TopoKind = "all-to-all"
)

// Topology describes the device-to-device interconnect of a profile: the
// wiring kind plus the alpha/beta constants of one peer link.
type Topology struct {
	Kind TopoKind
	// PeerLatency is the per-round (per-hop, on a ring) latency of a peer
	// transfer, the alpha term.
	PeerLatency float64
	// PeerBandwidth is the bandwidth of one peer link in bytes/second,
	// the beta term.
	PeerBandwidth float64
}

// PeerToPeer reports whether the topology routes device-to-device
// traffic directly, without bouncing through the host. The zero value
// (and TopoHostHub) keep the paper's host-mediated routing.
func (t Topology) PeerToPeer() bool {
	switch t.Kind {
	case TopoPCIeSwitch, TopoNVLinkRing, TopoAllToAll:
		return true
	}
	return false
}

// Valid reports whether the kind is one of the shipped topologies.
func (t Topology) Valid() bool {
	switch t.Kind {
	case "", TopoHostHub, TopoPCIeSwitch, TopoNVLinkRing, TopoAllToAll:
		return true
	}
	return false
}

// Profile is a complete, swappable machine description: a name for
// reports and the HTTP API, the compute/host-link cost model, the peer
// interconnect topology of one node, and (optionally) the cluster tier
// grouping the devices into nodes joined by an inter-node fabric.
type Profile struct {
	Name  string
	Model CostModel
	Topo  Topology
	// Cluster, when enabled, makes the profile a two-tier machine: the
	// zero value keeps the single-node charging paths byte-identical.
	Cluster Cluster
	// BF16Transfer declares that the machine's interconnect can ship
	// bfloat16-compressed payloads (peer copy engines / RDMA fabrics
	// with 2-byte element support). The precision policy in
	// internal/core only narrows transfers to ElemBF16 when the profile
	// claims this; internal/profile's validator rejects the claim on
	// host-hub topologies and non-RDMA cluster fabrics. False (the zero
	// value) caps transfer compression at FP32.
	BF16Transfer bool
}

// Clustered reports whether the profile describes a multi-node machine.
func (p Profile) Clustered() bool { return p.Cluster.Enabled() }

// DefaultProfile wraps a bare cost model the way NewContext always has:
// host-mediated routing, peer constants mirroring the host link.
func DefaultProfile(model CostModel) Profile { return defaultProfile(model) }

// defaultProfile wraps a bare cost model the way NewContext always has:
// host-mediated routing, peer constants mirroring the host link.
func defaultProfile(model CostModel) Profile {
	name := "custom"
	if model == M2090() {
		name = "m2090"
	}
	return Profile{
		Name:  name,
		Model: model,
		Topo:  Topology{Kind: TopoHostHub, PeerLatency: model.Latency, PeerBandwidth: model.Bandwidth},
	}
}

// NewContextWithProfile creates a context with ng simulated devices
// described by the profile.
func NewContextWithProfile(ng int, p Profile) *Context {
	c := NewContext(ng, p.Model)
	c.prof = p
	return c
}

// Profile returns the context's machine description.
func (c *Context) Profile() Profile { return c.prof }

// Topology returns the context's interconnect topology.
func (c *Context) Topology() Topology { return c.prof.Topo }

// SetProfile re-targets the context at a different machine description:
// cost model and topology swap together. Call it between solves (the
// scheduler does, per lease); charges already on the ledger keep the
// costs they were charged at. Survivors views capture the profile at
// derivation time, so set the profile on the root before deriving views.
func (c *Context) SetProfile(p Profile) {
	c.Model = p.Model
	c.prof = p
}

// --- Peer-to-peer routing --------------------------------------------------

// routePeer converts one peer exchange round into modeled seconds under
// the profile's topology. traffic[s][d] is the byte volume LOGICAL
// device s ships to logical device d; routing happens on PHYSICAL device
// ids (c.physOf), so a Survivors view of a ring charges the hops of the
// surviving devices' real positions — traffic between ring neighbors of
// the view may cross a dead device's links.
func (c *Context) routePeer(traffic [][]int) float64 {
	topo := c.prof.Topo
	nphys := c.physDevices()
	switch topo.Kind {
	case TopoNVLinkRing:
		// Directed link loads around the physical ring: cw[i] carries
		// i -> i+1 (mod n), ccw[i] carries i -> i-1.
		cw := make([]int, nphys)
		ccw := make([]int, nphys)
		maxHops := 0
		for ls, row := range traffic {
			s := c.physOf(ls)
			for ld, b := range row {
				if b <= 0 || ls == ld {
					continue
				}
				d := c.physOf(ld)
				fwd := (d - s + nphys) % nphys
				hops := fwd
				if fwd <= nphys-fwd {
					for k := 0; k < fwd; k++ {
						cw[(s+k)%nphys] += b
					}
				} else {
					hops = nphys - fwd
					for k := 0; k < hops; k++ {
						ccw[(s-k+nphys)%nphys] += b
					}
				}
				if hops > maxHops {
					maxHops = hops
				}
			}
		}
		maxLoad := 0
		for i := 0; i < nphys; i++ {
			if cw[i] > maxLoad {
				maxLoad = cw[i]
			}
			if ccw[i] > maxLoad {
				maxLoad = ccw[i]
			}
		}
		if maxHops == 0 {
			maxHops = 1 // an empty round still pays one launch
		}
		return topo.PeerLatency*float64(maxHops) + float64(maxLoad)/topo.PeerBandwidth
	case TopoAllToAll:
		// Dedicated link per ordered pair: the slowest pair bounds the round.
		maxPair := 0
		for ls, row := range traffic {
			for ld, b := range row {
				if ls != ld && b > maxPair {
					maxPair = b
				}
			}
		}
		return topo.PeerLatency + float64(maxPair)/topo.PeerBandwidth
	default: // TopoPCIeSwitch and anything unnamed that claims peer routing
		// Full-duplex per-device up-links into a non-blocking switch: the
		// most loaded direction of the most loaded link bounds the round.
		out := make([]int, nphys)
		in := make([]int, nphys)
		for ls, row := range traffic {
			s := c.physOf(ls)
			for ld, b := range row {
				if b <= 0 || ls == ld {
					continue
				}
				out[s] += b
				in[c.physOf(ld)] += b
			}
		}
		maxLink := 0
		for i := 0; i < nphys; i++ {
			if out[i] > maxLink {
				maxLink = out[i]
			}
			if in[i] > maxLink {
				maxLink = in[i]
			}
		}
		return topo.PeerLatency + float64(maxLink)/topo.PeerBandwidth
	}
}

// peerMessages counts the nonzero ordered pairs of a traffic matrix.
func peerMessages(traffic [][]int) int {
	n := 0
	for s, row := range traffic {
		for d, b := range row {
			if s != d && b > 0 {
				n++
			}
		}
	}
	return n
}

// Exchange charges one device-to-device exchange the way the profile
// routes it. Host-mediated topologies replay the paper's protocol byte
// for byte: a device-to-host reduce of send (each device's compressed
// boundary, every value once) followed by a host-to-device broadcast of
// recv (each device's halo), the second leg depending on the first.
// Nil send and recv stand for traffic's per-device send and receive
// totals. Peer-to-peer topologies ship traffic[s][d] bytes from logical
// device s to logical device d directly (a value consumed by two peers
// is sent twice — the price of skipping the host's deduplicating staging
// buffer) in a single round costing the topology's bottleneck path; a
// clustered profile always routes the traffic matrix, node-local pairs
// over the peer tier and cross-node pairs over the fabric, splitting
// the ledger charge between the node-local and fabric columns. A nil
// traffic matrix forces the host path regardless of topology. op.Elem
// tags the round(s) in the precision ledger; the caller has already
// scaled every volume to that wire width.
func (c *Context) Exchange(op Op, send, recv []int, traffic [][]int) StreamEvent {
	if traffic == nil || !c.prof.Topo.PeerToPeer() && !c.clustered() {
		if send == nil && recv == nil {
			send, recv = rowTotals(traffic), colTotals(traffic)
		}
		op.After = c.round(op, dirD2H, send)
		return c.round(op, dirH2D, recv)
	}
	if len(traffic) != c.NumDevices {
		panic(fmt.Sprintf("gpu: peer traffic for %d devices on a %d-device context", len(traffic), c.NumDevices))
	}
	c.checkDeaths(op.Phase)
	var t float64
	var nodeOf []int
	if c.clustered() {
		t, _ = c.routeCluster(traffic)
		nodeOf = c.nodeOfLogical(len(traffic))
	} else {
		t = c.routePeer(traffic)
	}
	stall := c.injectTransferFaults(op.Phase, t)
	devs := c.devIDs(len(traffic))
	c.stats.addPeer(op.Phase, devs, traffic, nodeOf, t, op.Elem)
	return c.timeline.submit(LaneTransfer, edgeNone, op.Phase, devs, []float64{t}, stall, op.After, op.Sync)
}

func rowTotals(traffic [][]int) []int {
	out := make([]int, len(traffic))
	for s, row := range traffic {
		for d, b := range row {
			if s != d {
				out[s] += b
			}
		}
	}
	return out
}

func colTotals(traffic [][]int) []int {
	out := make([]int, len(traffic))
	for s, row := range traffic {
		for d, b := range row {
			if s != d {
				out[d] += b
			}
		}
	}
	return out
}
