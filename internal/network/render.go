package network

import (
	"fmt"
	"strings"

	"github.com/tibfit/tibfit/internal/geo"
)

// RenderField draws the deployment as an ASCII map sized cols×rows: each
// node appears at its grid cell with a mark encoding the base station's
// current view of it —
//
//	H  currently serving as a cluster head
//	#  trusted          (TI ≥ 0.8)
//	+  doubted          (0.5 ≤ TI < 0.8)
//	.  distrusted       (TI < 0.5)
//	X  isolated
//
// Cells holding several nodes show the most severe mark. The operator's
// field picture, one glance: who leads, and where the rot is.
func (n *Network) RenderField(cols, rows int) string {
	if cols < 8 {
		cols = 8
	}
	if rows < 4 {
		rows = 4
	}
	minP, maxP := n.bounds()
	w := maxP.X - minP.X
	h := maxP.Y - minP.Y
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}

	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cols))
	}
	heads := make(map[int]bool, len(n.clusters))
	for head := range n.clusters {
		heads[head] = true
	}

	// The base station's persisted view plus live state: prefer the live
	// cluster scheme for members of active clusters.
	ti := func(id int) (float64, bool) {
		if head, ok := n.HeadOf(id); ok {
			if cs, ok := n.clusters[head]; ok {
				return cs.scheme.TI(id), cs.scheme.Isolated(id)
			}
		}
		if cs, ok := n.clusters[id]; ok {
			return cs.scheme.TI(id), cs.scheme.Isolated(id)
		}
		return n.station.TI(id), false
	}

	severity := func(mark byte) int {
		switch mark {
		case 'X':
			return 4
		case '.':
			return 3
		case '+':
			return 2
		case '#':
			return 1
		case 'H':
			return 5
		default:
			return 0
		}
	}
	for _, nd := range n.nodes {
		p := nd.Pos()
		c := int((p.X - minP.X) / w * float64(cols-1))
		r := int((p.Y - minP.Y) / h * float64(rows-1))
		var mark byte
		switch trust, isolated := ti(nd.ID()); {
		case heads[nd.ID()]:
			mark = 'H'
		case isolated:
			mark = 'X'
		case trust >= 0.8:
			mark = '#'
		case trust >= 0.5:
			mark = '+'
		default:
			mark = '.'
		}
		if severity(mark) > severity(grid[r][c]) {
			grid[r][c] = mark
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "field %dx%d: %d nodes, %d clusters\n",
		int(w), int(h), len(n.nodes), len(n.clusters))
	b.WriteString("+" + strings.Repeat("-", cols) + "+\n")
	for r := rows - 1; r >= 0; r-- { // y grows upward
		b.WriteString("|")
		b.Write(grid[r])
		b.WriteString("|\n")
	}
	b.WriteString("+" + strings.Repeat("-", cols) + "+\n")
	b.WriteString("H=head  #=trusted  +=doubted  .=distrusted  X=isolated\n")
	return b.String()
}

// bounds returns the axis-aligned bounding box of the node positions.
func (n *Network) bounds() (geo.Point, geo.Point) {
	lo := n.nodes[0].Pos()
	hi := lo
	for _, nd := range n.nodes[1:] {
		p := nd.Pos()
		if p.X < lo.X {
			lo.X = p.X
		}
		if p.Y < lo.Y {
			lo.Y = p.Y
		}
		if p.X > hi.X {
			hi.X = p.X
		}
		if p.Y > hi.Y {
			hi.Y = p.Y
		}
	}
	return lo, hi
}

// TrustCensus tallies the base station's current view of the population.
type TrustCensus struct {
	Trusted    int // TI ≥ 0.8
	Doubted    int // 0.5 ≤ TI < 0.8
	Distrusted int // TI < 0.5
}

// Census computes the current trust census from the persisted base
// station state merged with the live cluster tables.
func (n *Network) Census() TrustCensus {
	var c TrustCensus
	for id := range n.nodes {
		var trust float64
		if head, ok := n.HeadOf(id); ok {
			if cs, ok := n.clusters[head]; ok {
				trust = cs.scheme.TI(id)
			}
		} else if cs, ok := n.clusters[id]; ok {
			trust = cs.scheme.TI(id)
		} else {
			trust = n.station.TI(id)
		}
		switch {
		case trust >= 0.8:
			c.Trusted++
		case trust >= 0.5:
			c.Doubted++
		default:
			c.Distrusted++
		}
	}
	return c
}
