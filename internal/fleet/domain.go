// Package fleet scales the platform from one PSU to a datacenter: a
// fault-domain tree (room → rack → enclosure → PSU) in which every node
// owns a power state and a cut can target any node, propagating to every
// drive beneath it, plus a fleet of m+k redundancy groups (Config.Parity
// parity bays each; a group tolerates up to Parity concurrent casualties)
// with standby spares and per-member rebuild state machines running over
// the tree.
//
// The tree replaces the single shared power.PSU assumption with
// placement-derived correlation, in the spirit of Meza et al.'s datacenter
// failure studies: failures cluster by enclosure, rack and room because
// that is where the shared hardware lives. The tree also owns the per-level
// cut and restore counts. The paper's single-PSU rig does not use it: its
// scheduler drives the Arduino directly.
//
// Rebuild reads and writes are ordinary block-layer requests against the
// member drives, so rebuild traffic competes with foreground IO for member
// bandwidth and degraded-mode latency and rebuild-window vulnerability
// emerge from the queueing models rather than closed-form rates.
package fleet

import (
	"fmt"
)

// Level is a fault-domain tier, ordered from the widest blast radius
// (Room) to the narrowest (PSU).
type Level int

// Fault-domain levels. A cut at a level powers off every drive beneath the
// targeted node: a PSU cut hits one enclosure's supply segment, a Room cut
// is the paper's whole-rig switch writ large.
const (
	Room Level = iota
	Rack
	Enclosure
	PSU
	numLevels
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case Room:
		return "room"
	case Rack:
		return "rack"
	case Enclosure:
		return "enclosure"
	case PSU:
		return "psu"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Levels enumerates the tiers from Room down to PSU.
func Levels() []Level { return []Level{Room, Rack, Enclosure, PSU} }

// DomainConfig sizes the fault-domain tree: one room of Racks racks, each
// holding EnclosuresPerRack enclosures with PSUsPerEnclosure power
// segments. Drives hang off the PSU leaves.
type DomainConfig struct {
	Racks             int `json:"racks"`
	EnclosuresPerRack int `json:"enclosures_per_rack"`
	PSUsPerEnclosure  int `json:"psus_per_enclosure"`
}

// DefaultDomains is a small two-deep room: 2 racks × 2 enclosures × 2 PSUs.
func DefaultDomains() DomainConfig {
	return DomainConfig{Racks: 2, EnclosuresPerRack: 2, PSUsPerEnclosure: 2}
}

func (c DomainConfig) withDefaults() DomainConfig {
	if c.Racks == 0 && c.EnclosuresPerRack == 0 && c.PSUsPerEnclosure == 0 {
		return DefaultDomains()
	}
	if c.Racks == 0 {
		c.Racks = 1
	}
	if c.EnclosuresPerRack == 0 {
		c.EnclosuresPerRack = 1
	}
	if c.PSUsPerEnclosure == 0 {
		c.PSUsPerEnclosure = 1
	}
	return c
}

// Validate checks the configuration.
func (c DomainConfig) Validate() error {
	if c.Racks < 1 || c.EnclosuresPerRack < 1 || c.PSUsPerEnclosure < 1 {
		return fmt.Errorf("fleet: domain fan-outs must be >= 1, got %+v", c)
	}
	return nil
}

// Node is one fault domain. Its power state is derived: a node is powered
// iff neither it nor any ancestor is cut.
type Node struct {
	level    Level
	name     string
	parent   *Node
	children []*Node

	cut     int // active cuts targeting this node itself (cuts nest)
	powered bool
	onPower []func(on bool)
}

// Name returns the node's path-style label ("rack1/enc0/psu1").
func (n *Node) Name() string { return n.name }

// Powered reports whether the node currently has power (no cut on itself
// or any ancestor).
func (n *Node) Powered() bool { return n.powered }

// OnPower registers fn to run whenever the node's derived power state
// changes; fn receives the new state. Drives attach here to their PSU leaf.
func (n *Node) OnPower(fn func(on bool)) { n.onPower = append(n.onPower, fn) }

// refresh recomputes the derived power state after a cut or restore and
// fires transition callbacks top-down, so an enclosure's listeners see the
// outage before the drives beneath it do.
func (n *Node) refresh() {
	p := n.cut == 0 && (n.parent == nil || n.parent.powered)
	if p == n.powered {
		return // subtree unchanged: a child's own cut still dominates it
	}
	n.powered = p
	for _, fn := range n.onPower {
		fn(p)
	}
	for _, c := range n.children {
		c.refresh()
	}
}

// Tree is the fault-domain hierarchy. It also keeps the per-level cut and
// restore counts the fleet report surfaces.
type Tree struct {
	levels [numLevels][]*Node

	cuts     [numLevels]int64
	restores [numLevels]int64
}

// NewTree builds the room → rack → enclosure → PSU hierarchy described by
// cfg, fully powered.
func NewTree(cfg DomainConfig) (*Tree, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Tree{}
	room := t.newNode(Room, nil, "room")
	for r := 0; r < cfg.Racks; r++ {
		rack := t.newNode(Rack, room, fmt.Sprintf("rack%d", r))
		for e := 0; e < cfg.EnclosuresPerRack; e++ {
			enc := t.newNode(Enclosure, rack, fmt.Sprintf("%s/enc%d", rack.name, e))
			for p := 0; p < cfg.PSUsPerEnclosure; p++ {
				t.newNode(PSU, enc, fmt.Sprintf("%s/psu%d", enc.name, p))
			}
		}
	}
	return t, nil
}

func (t *Tree) newNode(l Level, parent *Node, name string) *Node {
	n := &Node{level: l, name: name, parent: parent, powered: true}
	if parent != nil {
		parent.children = append(parent.children, n)
	}
	t.levels[l] = append(t.levels[l], n)
	return n
}

// Nodes returns the nodes of one level in construction order.
func (t *Tree) Nodes(l Level) []*Node {
	if l < 0 || l >= numLevels {
		return nil
	}
	return t.levels[l]
}

// Leaves returns the PSU nodes drives attach to.
func (t *Tree) Leaves() []*Node { return t.levels[PSU] }

// CutNode powers off n's subtree and counts the cut at n's level. Cuts on
// the same node nest: the subtree stays dark until every cut is restored.
func (t *Tree) CutNode(n *Node) {
	t.cuts[n.level]++
	n.cut++
	if n.cut == 1 {
		n.refresh()
	}
}

// RestoreNode ends one cut targeted at n and counts the restore.
func (t *Tree) RestoreNode(n *Node) {
	t.restores[n.level]++
	if n.cut == 0 {
		return
	}
	n.cut--
	if n.cut == 0 {
		n.refresh()
	}
}

// CutsAt returns how many cuts targeted level l.
func (t *Tree) CutsAt(l Level) int {
	if l < 0 || l >= numLevels {
		return 0
	}
	return int(t.cuts[l])
}

// RestoresAt returns how many restores targeted level l.
func (t *Tree) RestoresAt(l Level) int {
	if l < 0 || l >= numLevels {
		return 0
	}
	return int(t.restores[l])
}
