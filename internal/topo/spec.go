package topo

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// MaxHubs is the largest HUB count any topology may have: Hop.HubID is one
// byte and HUB ID 0 is reserved, so IDs 1..255 are available.
const MaxHubs = 255

// Kind identifies a topology shape.
type Kind int

// Topology shapes. KindInvalid is the zero Spec.
const (
	KindInvalid Kind = iota
	KindSingleHub
	KindMesh
	KindLine
	KindTorus
	KindTorus3D
	KindFatTree
)

// Spec declaratively describes a network shape: which HUBs exist, how they
// are wired, and how many CABs hang off each. Build one with Single, Mesh,
// Chain, Torus, Torus3D, or FatTree, then realize it with Build. A Spec is
// a plain value: it can be compared, stored, and rendered before anything
// is constructed.
type Spec struct {
	Kind Kind
	// Grid dimensions: X columns, Y rows, Z layers (1 where unused). For
	// KindLine, X is the chain length; for KindFatTree, X is the leaf count.
	X, Y, Z int
	// Spines is the spine-HUB count (KindFatTree only).
	Spines int
	// CABsPerHub is the CAB count per HUB (per leaf HUB for fat-trees; the
	// total CAB count for single-HUB systems).
	CABsPerHub int
}

// Single describes the paper's Figure 2 system: one HUB with nCABs CABs.
func Single(nCABs int) Spec {
	return Spec{Kind: KindSingleHub, X: 1, Y: 1, Z: 1, CABsPerHub: nCABs}
}

// Mesh describes the paper's Figure 4 system: a rows x cols 2-D mesh of
// HUB clusters with cabsPerHub CABs each.
func Mesh(rows, cols, cabsPerHub int) Spec {
	return Spec{Kind: KindMesh, X: cols, Y: rows, Z: 1, CABsPerHub: cabsPerHub}
}

// Chain describes a line of nHubs HUB clusters with cabsPerHub CABs each
// (useful for hop-count studies).
func Chain(nHubs, cabsPerHub int) Spec {
	return Spec{Kind: KindLine, X: nHubs, Y: 1, Z: 1, CABsPerHub: cabsPerHub}
}

// Torus describes a rows x cols 2-D torus of HUB clusters: a mesh whose
// rows and columns close into rings (dimensions of size <= 2 gain no wrap
// link — it would duplicate an existing edge).
func Torus(rows, cols, cabsPerHub int) Spec {
	return Spec{Kind: KindTorus, X: cols, Y: rows, Z: 1, CABsPerHub: cabsPerHub}
}

// Torus3D describes an x by y by z 3-D torus of HUB clusters, the scale-out
// shape of the DNP interconnect: every HUB has up to six inter-HUB links.
func Torus3D(x, y, z, cabsPerHub int) Spec {
	return Spec{Kind: KindTorus3D, X: x, Y: y, Z: z, CABsPerHub: cabsPerHub}
}

// FatTree describes a two-level fat tree: leafHubs leaf HUBs each wired to
// every one of spineHubs spine HUBs, with cabsPerLeaf CABs per leaf. CABs
// attach only to leaves; spines are pure transit. Any leaf pair is two hops
// apart over any spine, so path diversity equals the spine count.
func FatTree(leafHubs, spineHubs, cabsPerLeaf int) Spec {
	return Spec{Kind: KindFatTree, X: leafHubs, Y: 1, Z: 1, Spines: spineHubs, CABsPerHub: cabsPerLeaf}
}

// String renders the spec for error messages and logs.
func (s Spec) String() string {
	switch s.Kind {
	case KindSingleHub:
		return fmt.Sprintf("SingleHub(%d)", s.CABsPerHub)
	case KindMesh:
		return fmt.Sprintf("Mesh(%dx%d, %d CABs/HUB)", s.Y, s.X, s.CABsPerHub)
	case KindLine:
		return fmt.Sprintf("Line(%d HUBs, %d CABs/HUB)", s.X, s.CABsPerHub)
	case KindTorus:
		return fmt.Sprintf("Torus(%dx%d, %d CABs/HUB)", s.Y, s.X, s.CABsPerHub)
	case KindTorus3D:
		return fmt.Sprintf("Torus3D(%dx%dx%d, %d CABs/HUB)", s.X, s.Y, s.Z, s.CABsPerHub)
	case KindFatTree:
		return fmt.Sprintf("FatTree(%d leaves, %d spines, %d CABs/leaf)", s.X, s.Spines, s.CABsPerHub)
	default:
		return "Topology(zero)"
	}
}

// NumHubs returns the HUB count the spec will produce.
func (s Spec) NumHubs() int {
	switch s.Kind {
	case KindSingleHub:
		return 1
	case KindMesh, KindTorus:
		return s.X * s.Y
	case KindLine:
		return s.X
	case KindTorus3D:
		return s.X * s.Y * s.Z
	case KindFatTree:
		return s.X + s.Spines
	default:
		return 0
	}
}

// NumCABs returns the CAB count the spec will produce.
func (s Spec) NumCABs() int {
	switch s.Kind {
	case KindSingleHub:
		return s.CABsPerHub
	case KindMesh, KindTorus, KindLine, KindTorus3D:
		return s.NumHubs() * s.CABsPerHub
	case KindFatTree:
		return s.X * s.CABsPerHub
	default:
		return 0
	}
}

// lineDeg is the largest per-HUB degree along one non-wrapping axis.
func lineDeg(n int) int {
	switch {
	case n > 2:
		return 2
	case n == 2:
		return 1
	default:
		return 0
	}
}

// ringDeg is the largest per-HUB degree along one wrapping axis: size 2
// gains no wrap link, so it degenerates to the line case.
func ringDeg(n int) int {
	if n > 2 {
		return 2
	}
	return lineDeg(n)
}

// MaxHubDegree returns the largest number of inter-HUB links any single HUB
// carries in the topology.
func (s Spec) MaxHubDegree() int {
	switch s.Kind {
	case KindMesh:
		return lineDeg(s.Y) + lineDeg(s.X)
	case KindLine:
		return lineDeg(s.X)
	case KindTorus:
		return ringDeg(s.Y) + ringDeg(s.X)
	case KindTorus3D:
		return ringDeg(s.X) + ringDeg(s.Y) + ringDeg(s.Z)
	case KindFatTree:
		if s.Spines > s.X {
			return s.Spines
		}
		return s.X
	default:
		return 0
	}
}

// MinHubPorts returns the smallest per-HUB port count the spec fits in:
// CAB attachments plus inter-HUB links on the busiest HUB.
func (s Spec) MinHubPorts() int {
	if s.Kind == KindFatTree {
		// Leaves carry CABs plus one uplink per spine; spines carry one
		// downlink per leaf and no CABs.
		leaf := s.CABsPerHub + s.Spines
		if s.X > leaf {
			return s.X
		}
		return leaf
	}
	return s.CABsPerHub + s.MaxHubDegree()
}

// checkHubLimit panics when the spec exceeds the one-byte HUB ID space.
func (s Spec) checkHubLimit() {
	if n := s.NumHubs(); n > MaxHubs {
		panic(fmt.Sprintf("nectar: topology %v has %d HUBs: topo.Hop.HubID is one byte and ID 0 is reserved, so at most %d HUBs fit",
			s, n, MaxHubs))
	}
}

// Option refines network construction parameters. All shape builders share
// the same option set; core.New threads its Params.Topo through WithOptions.
type Option func(*Options)

// WithOptions replaces the whole Options struct (later options refine it).
func WithOptions(o Options) Option {
	return func(dst *Options) { *dst = o }
}

// Build realizes the spec: it creates the HUBs, wires the inter-HUB links,
// and attaches the CABs, recording the shape metadata (grid coordinates,
// fat-tree levels) the routing policies consult. Options default to
// DefaultOptions. Build panics with a descriptive "nectar: ..." message
// when the spec exceeds the 255-HUB ID space; port-fit validation happens
// in core.New against the final parameter set.
func (s Spec) Build(eng *sim.Engine, board *obs.FlightRecorder, opts ...Option) *Network {
	o := DefaultOptions()
	for _, f := range opts {
		f(&o)
	}
	s.checkHubLimit()
	n := NewNetwork(eng, board, o)
	n.shape = s
	switch s.Kind {
	case KindSingleHub:
		h := n.AddHub()
		n.setCoord(h, 0, 0, 0)
		for i := 0; i < s.CABsPerHub; i++ {
			n.AttachCAB(h, "")
		}
	case KindLine:
		prev := -1
		for i := 0; i < s.X; i++ {
			h := n.AddHub()
			n.setCoord(h, i, 0, 0)
			if prev >= 0 {
				n.ConnectHubs(prev, h)
			}
			for k := 0; k < s.CABsPerHub; k++ {
				n.AttachCAB(h, "")
			}
			prev = h
		}
	case KindMesh, KindTorus:
		s.buildGrid(n, s.Kind == KindTorus)
	case KindTorus3D:
		s.buildGrid(n, true)
	case KindFatTree:
		s.buildFatTree(n)
	default:
		panic(fmt.Sprintf("nectar: invalid topology %v: use Single, Mesh, Chain, Torus, Torus3D, or FatTree", s))
	}
	return n
}

// buildGrid builds the X x Y x Z grid, optionally closing each dimension of
// size > 2 into a ring. HUB creation is x-fastest (matching the historical
// Mesh2D row-major order), links follow in +x, +y, +z order per cell with
// wrap links from each dimension's last cell, and CABs attach last.
func (s Spec) buildGrid(n *Network, wrap bool) {
	idx := func(x, y, z int) int { return (z*s.Y+y)*s.X + x }
	for z := 0; z < s.Z; z++ {
		for y := 0; y < s.Y; y++ {
			for x := 0; x < s.X; x++ {
				h := n.AddHub()
				n.setCoord(h, x, y, z)
			}
		}
	}
	for z := 0; z < s.Z; z++ {
		for y := 0; y < s.Y; y++ {
			for x := 0; x < s.X; x++ {
				if x+1 < s.X {
					n.ConnectHubs(idx(x, y, z), idx(x+1, y, z))
				} else if wrap && s.X > 2 {
					n.ConnectHubs(idx(x, y, z), idx(0, y, z))
				}
				if y+1 < s.Y {
					n.ConnectHubs(idx(x, y, z), idx(x, y+1, z))
				} else if wrap && s.Y > 2 {
					n.ConnectHubs(idx(x, y, z), idx(x, 0, z))
				}
				if z+1 < s.Z {
					n.ConnectHubs(idx(x, y, z), idx(x, y, z+1))
				} else if wrap && s.Z > 2 {
					n.ConnectHubs(idx(x, y, z), idx(x, y, 0))
				}
			}
		}
	}
	for h := 0; h < s.NumHubs(); h++ {
		for k := 0; k < s.CABsPerHub; k++ {
			n.AttachCAB(h, "")
		}
	}
}

// buildFatTree builds the two-level fat tree: leaves 0..X-1, spines
// X..X+Spines-1, every leaf wired to every spine, CABs on leaves only.
func (s Spec) buildFatTree(n *Network) {
	for i := 0; i < s.X; i++ {
		h := n.AddHub()
		n.setLevel(h, 0)
	}
	for i := 0; i < s.Spines; i++ {
		h := n.AddHub()
		n.setLevel(h, 1)
	}
	for leaf := 0; leaf < s.X; leaf++ {
		for spine := 0; spine < s.Spines; spine++ {
			n.ConnectHubs(leaf, s.X+spine)
		}
	}
	for leaf := 0; leaf < s.X; leaf++ {
		for k := 0; k < s.CABsPerHub; k++ {
			n.AttachCAB(leaf, "")
		}
	}
}
