package core

import (
	"slices"

	"repro/internal/compat"
	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/netlist"
)

// placeMBR solves the §4.2 placement problem: find the MBR corner position
// (x, y) inside the group's common timing-feasible region that minimizes
// the total half-perimeter wirelength of the nets on the MBR's D and Q
// pins, with each pin at corner + the chosen cell's per-bit offset. The
// paper states it as a linear program; hpwlOptimum solves it in closed form.
//
// ordered lists the member instances in merge order (which fixes the bit
// assignment); it must be called before the merge, while the old registers
// are still connected.
func placeMBR(
	d *netlist.Design,
	g *compat.Graph,
	nodes []int,
	ordered []*netlist.Inst,
	cell *lib.Cell,
) geom.Point {
	region, ok := g.GroupRegion(nodes)
	if !ok {
		// Should not happen for enumerated candidates; fall back to the
		// first member's position.
		region = geom.Rect{Lo: ordered[0].Pos, Hi: ordered[0].Pos}
	}
	// Keep the cell inside the core even if the slack region pokes out.
	coreFit := geom.Rect{
		Lo: d.Core.Lo,
		Hi: geom.Point{X: d.Core.Hi.X - cell.Width, Y: d.Core.Hi.Y - cell.Height},
	}
	if r, ok := region.Intersect(coreFit); ok {
		region = r
	}

	var terms []pinTerm
	k := 0
	for _, in := range ordered {
		for b := 0; b < in.Bits(); b++ {
			if dp := d.DPin(in, b); dp != nil && dp.Net != netlist.NoID {
				if box, ok := othersBox(d, d.Net(dp.Net), dp); ok {
					terms = append(terms, pinTerm{off: cell.DPins[k], box: box})
				}
			}
			if qp := d.QPin(in, b); qp != nil && qp.Net != netlist.NoID {
				if box, ok := othersBox(d, d.Net(qp.Net), qp); ok {
					terms = append(terms, pinTerm{off: cell.QPins[k], box: box})
				}
			}
			k++
		}
	}
	if len(terms) == 0 {
		// No connected pins: centroid of the members, clamped.
		var sx, sy int64
		for _, in := range ordered {
			c := in.Center()
			sx += c.X
			sy += c.Y
		}
		n := int64(len(ordered))
		return snapToGrid(d, region.ClampPoint(geom.Point{X: sx / n, Y: sy / n}), region)
	}
	return snapToGrid(d, hpwlOptimum(terms, region), region)
}

// pinTerm is one connected MBR pin: its offset from the cell corner and the
// bounding box of the other pins on its net.
type pinTerm struct {
	off lib.PinOffset
	box geom.Rect
}

// hpwlOptimum returns a corner position in region minimizing the summed
// HPWL of the terms' nets. The objective separates into x and y. Along x,
// a pin at x+dx on a net whose other pins span [lo, hi] adds
//
//	max(hi, x+dx) − min(lo, x+dx) = ½(|x−(lo−dx)| + |x−(hi−dx)|) + ½(hi−lo),
//
// so minimizing the sum is minimizing the distance to the 2n breakpoints
// lo−dx and hi−dx. Every point of their median interval is optimal, and by
// convexity clamping into the region keeps it optimal there. The midpoint
// of the interval is the fixed tie-break.
func hpwlOptimum(terms []pinTerm, region geom.Rect) geom.Point {
	xs := make([]int64, 0, 2*len(terms))
	ys := make([]int64, 0, 2*len(terms))
	for _, t := range terms {
		xs = append(xs, t.box.Lo.X-t.off.DX, t.box.Hi.X-t.off.DX)
		ys = append(ys, t.box.Lo.Y-t.off.DY, t.box.Hi.Y-t.off.DY)
	}
	return region.ClampPoint(geom.Point{X: medianMid(xs), Y: medianMid(ys)})
}

// medianMid returns the midpoint (rounded down) of the median interval of an
// even-length list of breakpoints; it reorders bp.
func medianMid(bp []int64) int64 {
	slices.Sort(bp)
	lo, hi := bp[len(bp)/2-1], bp[len(bp)/2]
	return lo + (hi-lo)/2
}

// othersBox returns the bounding box of the net's pins excluding excl.
func othersBox(d *netlist.Design, n *netlist.Net, excl *netlist.Pin) (geom.Rect, bool) {
	var pts []geom.Point
	if n.Driver != netlist.NoID && n.Driver != excl.ID {
		pts = append(pts, d.PinPos(d.Pin(n.Driver)))
	}
	for _, s := range n.Sinks {
		if s != excl.ID {
			pts = append(pts, d.PinPos(d.Pin(s)))
		}
	}
	if len(pts) == 0 {
		return geom.Rect{}, false
	}
	return geom.BoundingBox(pts), true
}

// snapToGrid rounds the point down to the design's site/row grid while
// staying inside the region when possible.
func snapToGrid(d *netlist.Design, p geom.Point, region geom.Rect) geom.Point {
	sx := d.Core.Lo.X + ((p.X-d.Core.Lo.X)/d.SiteW)*d.SiteW
	sy := d.Core.Lo.Y + ((p.Y-d.Core.Lo.Y)/d.RowH)*d.RowH
	if sx < region.Lo.X && sx+d.SiteW <= region.Hi.X {
		sx += d.SiteW
	}
	if sy < region.Lo.Y && sy+d.RowH <= region.Hi.Y {
		sy += d.RowH
	}
	return geom.Point{X: sx, Y: sy}
}
