package gpu

import "fmt"

// This file adds the second network tier the paper's conclusion asks
// for: a cluster of simulated nodes, each holding DevicesPerNode devices
// joined by the profile's node-local Topology, with the nodes themselves
// joined by an inter-node Fabric (InfiniBand- or Ethernet-class α/β).
// Exchange rounds route node-local traffic over the peer tier and
// cross-node traffic over the fabric, charged to a dedicated
// bytesInterNode ledger column; host rounds pay an extra fabric leg for
// the shares contributed by remote nodes. Like every profile knob, the
// cluster tier reorders *time*, never arithmetic — iterates are
// bit-identical whether the devices live in one box or sixty-four.
//
// A profile without a Cluster (the zero value) keeps every charge
// byte-identical to the single-node simulator: all cluster routing is
// gated on Cluster.Enabled().

// FabricKind names an inter-node interconnect generation.
type FabricKind string

// The shipped fabric kinds. The constants live in internal/profile;
// the kind here is a free-form label carried into reports.
const (
	// FabricIBHDR is an InfiniBand HDR-class RDMA fabric.
	FabricIBHDR FabricKind = "ib-hdr"
	// FabricIBEDR is the previous InfiniBand generation.
	FabricIBEDR FabricKind = "ib-edr"
	// FabricEthernet100G is RoCE-style 100G Ethernet.
	FabricEthernet100G FabricKind = "ethernet-100g"
	// FabricEthernet25G is plain 25G Ethernet with a kernel TCP stack —
	// the high-latency end of the study.
	FabricEthernet25G FabricKind = "ethernet-25g"
)

// Fabric is the inter-node tier of a two-tier interconnect: the α/β
// constants of one node's uplink into the cluster network.
type Fabric struct {
	Kind FabricKind
	// Latency is the per-round inter-node latency (MPI pt2pt + NIC), the
	// fabric's alpha term.
	Latency float64
	// Bandwidth is one node uplink's bandwidth in bytes/second, the
	// fabric's beta term.
	Bandwidth float64
}

// Cluster groups a profile's devices into simulated compute nodes.
// DevicesPerNode == 0 (the zero value) disables the tier: the profile
// describes one node and nothing in the charging paths changes.
type Cluster struct {
	// DevicesPerNode is the device count of one node; context devices
	// are grouped by physical id (devices 0..G-1 are node 0, and so on).
	DevicesPerNode int
	// Fabric is the inter-node interconnect joining the nodes.
	Fabric Fabric
}

// Enabled reports whether the cluster tier is armed.
func (cl Cluster) Enabled() bool { return cl.DevicesPerNode > 0 }

// clustered reports whether this context charges over a two-tier
// interconnect.
func (c *Context) clustered() bool { return c.prof.Cluster.Enabled() }

// NodeOf returns the simulated node of logical device d. Node
// membership follows physical ids, so a Survivors view keeps each
// surviving device on its original node.
func (c *Context) NodeOf(d int) int {
	if !c.clustered() {
		return 0
	}
	return c.physOf(d) / c.prof.Cluster.DevicesPerNode
}

// NumNodes returns the simulated node count of this context's physical
// device range (1 on single-node profiles).
func (c *Context) NumNodes() int {
	if !c.clustered() {
		return 1
	}
	g := c.prof.Cluster.DevicesPerNode
	return (c.physDevices() + g - 1) / g
}

// nodeOfLogical materializes NodeOf for the first n logical devices.
func (c *Context) nodeOfLogical(n int) []int {
	out := make([]int, n)
	for d := range out {
		out[d] = c.NodeOf(d)
	}
	return out
}

// routeLocal converts one intra-node exchange round into modeled
// seconds under the node-local topology: traffic is an npos×npos matrix
// in node-local positions (physical id modulo DevicesPerNode), so dead
// or absent positions simply carry zero rows. The arithmetic mirrors
// routePeer per kind; the host-hub kind bounces through the node's own
// host at the profile's host-link constants (a reduce leg plus a
// broadcast leg, like Exchange's host path).
func (c *Context) routeLocal(npos int, traffic [][]int) float64 {
	topo := c.prof.Topo
	switch topo.Kind {
	case TopoNVLinkRing:
		cw := make([]int, npos)
		ccw := make([]int, npos)
		maxHops := 0
		for s, row := range traffic {
			for d, b := range row {
				if b <= 0 || s == d {
					continue
				}
				fwd := (d - s + npos) % npos
				hops := fwd
				if fwd <= npos-fwd {
					for k := 0; k < fwd; k++ {
						cw[(s+k)%npos] += b
					}
				} else {
					hops = npos - fwd
					for k := 0; k < hops; k++ {
						ccw[(s-k+npos)%npos] += b
					}
				}
				if hops > maxHops {
					maxHops = hops
				}
			}
		}
		maxLoad := 0
		for i := 0; i < npos; i++ {
			if cw[i] > maxLoad {
				maxLoad = cw[i]
			}
			if ccw[i] > maxLoad {
				maxLoad = ccw[i]
			}
		}
		if maxHops == 0 {
			maxHops = 1
		}
		return topo.PeerLatency*float64(maxHops) + float64(maxLoad)/topo.PeerBandwidth
	case TopoAllToAll:
		maxPair := 0
		for s, row := range traffic {
			for d, b := range row {
				if s != d && b > maxPair {
					maxPair = b
				}
			}
		}
		return topo.PeerLatency + float64(maxPair)/topo.PeerBandwidth
	case TopoPCIeSwitch:
		out := make([]int, npos)
		in := make([]int, npos)
		for s, row := range traffic {
			for d, b := range row {
				if b <= 0 || s == d {
					continue
				}
				out[s] += b
				in[d] += b
			}
		}
		maxLink := 0
		for i := 0; i < npos; i++ {
			if out[i] > maxLink {
				maxLink = out[i]
			}
			if in[i] > maxLink {
				maxLink = in[i]
			}
		}
		return topo.PeerLatency + float64(maxLink)/topo.PeerBandwidth
	default: // host-hub (and the zero kind): bounce through the node host
		total := 0
		for s, row := range traffic {
			for d, b := range row {
				if s != d && b > 0 {
					total += b
				}
			}
		}
		// One reduce round and one broadcast round over the node's host
		// link; every exchanged byte crosses it twice.
		return 2*c.Model.Latency + 2*float64(total)/c.Model.Bandwidth
	}
}

// routeCluster converts one exchange round into modeled seconds under
// the two-tier interconnect, and reports the cross-node byte volume.
// Node-local pairs route within their node over the peer tier (every
// node's segment works concurrently, so the intra leg costs the slowest
// node); cross-node pairs load their endpoint nodes' fabric uplinks,
// and the fabric round costs one fabric latency plus the most loaded
// uplink direction (a non-blocking switch over node uplinks — the
// standard fat-tree abstraction). The two legs are sequential: boundary
// values hop the local tier before they can cross the fabric.
func (c *Context) routeCluster(traffic [][]int) (t float64, interBytes int) {
	g := c.prof.Cluster.DevicesPerNode
	fab := c.prof.Cluster.Fabric
	nNodes := c.NumNodes()

	intra := make(map[int][][]int) // node -> G×G node-local traffic
	outUp := make([]int, nNodes)
	inUp := make([]int, nNodes)
	intraAny := false
	for ls, row := range traffic {
		ps := c.physOf(ls)
		ns, posS := ps/g, ps%g
		for ld, b := range row {
			if b <= 0 || ls == ld {
				continue
			}
			pd := c.physOf(ld)
			nd, posD := pd/g, pd%g
			if ns == nd {
				m, ok := intra[ns]
				if !ok {
					m = make([][]int, g)
					for i := range m {
						m[i] = make([]int, g)
					}
					intra[ns] = m
				}
				m[posS][posD] += b
				intraAny = true
				continue
			}
			interBytes += b
			outUp[ns] += b
			inUp[nd] += b
		}
	}

	if intraAny {
		for _, m := range intra {
			if lt := c.routeLocal(g, m); lt > t {
				t = lt
			}
		}
	}
	if interBytes > 0 {
		maxUp := 0
		for n := 0; n < nNodes; n++ {
			if outUp[n] > maxUp {
				maxUp = outUp[n]
			}
			if inUp[n] > maxUp {
				maxUp = inUp[n]
			}
		}
		t += fab.Latency + float64(maxUp)/fab.Bandwidth
	}
	if t == 0 {
		t = c.prof.Topo.PeerLatency // an empty round still pays one launch
	}
	return t, interBytes
}

// roundTime models one host round (reduce/broadcast): one host-link
// latency plus the serialized bus time of the total volume. On a
// clustered profile every device's share crosses its own node's host
// link (segments concurrent, so the local leg costs the most loaded
// node), then the remote nodes' aggregates cross the fabric to the root
// node's host (uplinks concurrent). The legs are sequential. With one
// node this degenerates exactly to the single-node round time.
func (c *Context) roundTime(bytes []int) float64 {
	if !c.clustered() {
		total := 0
		for _, b := range bytes {
			total += b
		}
		return c.Model.Latency + float64(total)/c.Model.Bandwidth
	}
	g := c.prof.Cluster.DevicesPerNode
	fab := c.prof.Cluster.Fabric
	nNodes := c.NumNodes()
	vol := make([]int, nNodes)
	for d, b := range bytes {
		vol[c.physOf(d)/g] += b
	}
	maxVol, maxRemote := 0, 0
	for n, v := range vol {
		if v > maxVol {
			maxVol = v
		}
		if n != 0 && v > maxRemote {
			maxRemote = v
		}
	}
	t := c.Model.Latency + float64(maxVol)/c.Model.Bandwidth
	if maxRemote > 0 { // some remote node shipped bytes
		t += fab.Latency + float64(maxRemote)/fab.Bandwidth
	}
	return t
}

// Valid reports whether the fabric constants are physically meaningful
// for an armed cluster: non-negative finite latency, positive finite
// bandwidth.
func (f Fabric) Valid() bool {
	return f.Latency >= 0 && f.Latency <= 1e30 && f.Bandwidth > 0 && f.Bandwidth <= 1e30
}

// String renders the fabric for reports ("ib-hdr 5us/25GB/s").
func (f Fabric) String() string {
	return fmt.Sprintf("%s %.3gus/%.3gGB/s", f.Kind, f.Latency*1e6, f.Bandwidth/1e9)
}
