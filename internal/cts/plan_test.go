package cts

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// clusterSinksBySort is the reference bisection: every recursion node
// copies its sinks and sorts them along its longer bounding-box axis. The
// presorted clusterSinks must reproduce its clusters exactly, member order
// included.
func clusterSinksBySort(sinks []planSink, opts Options) [][]planSink {
	totalCap := 0.0
	for _, s := range sinks {
		totalCap += s.cap
	}
	if len(sinks) <= opts.MaxFanout && totalCap <= opts.MaxCap {
		return [][]planSink{sinks}
	}
	pts := make([]geom.Point, len(sinks))
	for i, s := range sinks {
		pts[i] = s.pos
	}
	bb := geom.BoundingBox(pts)
	horizontal := bb.W() >= bb.H()
	sorted := append([]planSink(nil), sinks...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := &sorted[i], &sorted[j]
		if horizontal {
			if a.pos.X != b.pos.X {
				return a.pos.X < b.pos.X
			}
			if a.pos.Y != b.pos.Y {
				return a.pos.Y < b.pos.Y
			}
		} else {
			if a.pos.Y != b.pos.Y {
				return a.pos.Y < b.pos.Y
			}
			if a.pos.X != b.pos.X {
				return a.pos.X < b.pos.X
			}
		}
		return a.ord < b.ord
	})
	mid := len(sorted) / 2
	left := clusterSinksBySort(sorted[:mid], opts)
	return append(left, clusterSinksBySort(sorted[mid:], opts)...)
}

// fuzzSinks builds a sink set from fuzz parameters. shape selects the
// geometry: 0 spreads sinks over a box of side spread (small spreads make
// equal coordinates and co-located sinks common), 1 stacks every sink on
// one point, 2 puts them on the corners and diagonal of a square (W == H
// at the root), 3 on a single row. ord is a permutation of 0..n-1 so
// ties break uniquely whatever the input order.
func fuzzSinks(seed int64, n int, shape uint8, spread int64, capHi float64) []planSink {
	rng := rand.New(rand.NewSource(seed))
	ords := rng.Perm(n)
	sinks := make([]planSink, n)
	for i := range sinks {
		var p geom.Point
		switch shape % 4 {
		case 0:
			p = geom.Point{X: rng.Int63n(spread + 1), Y: rng.Int63n(spread + 1)}
		case 1:
			p = geom.Point{X: spread, Y: spread}
		case 2:
			c := rng.Int63n(spread + 1)
			switch rng.Intn(3) {
			case 0:
				p = geom.Point{X: c, Y: c}
			case 1:
				p = geom.Point{X: spread * rng.Int63n(2), Y: spread * rng.Int63n(2)}
			default:
				p = geom.Point{X: c, Y: spread - c}
			}
		default:
			p = geom.Point{X: rng.Int63n(spread + 1), Y: 7}
		}
		sinks[i] = planSink{
			child: i, pos: p, ord: int64(ords[i]),
			cap: 0.25 + rng.Float64()*capHi,
		}
	}
	return sinks
}

func FuzzClusterSinks(f *testing.F) {
	// seed, n, shape, spread, fanout, capHi (the sink cap spread in
	// quarters of a fF; MaxCap is 60 fF), par.
	f.Add(int64(1), uint16(200), uint8(0), uint16(50000), uint8(24), uint8(10), uint8(0))
	f.Add(int64(2), uint16(300), uint8(1), uint16(900), uint8(24), uint8(10), uint8(1))    // co-located
	f.Add(int64(3), uint16(400), uint8(0), uint16(3), uint8(8), uint8(10), uint8(3))       // equal coordinates
	f.Add(int64(4), uint16(257), uint8(2), uint16(1000), uint8(5), uint8(10), uint8(1))    // W == H boxes
	f.Add(int64(5), uint16(500), uint8(0), uint16(20000), uint8(200), uint8(90), uint8(0)) // cap-limited
	f.Add(int64(6), uint16(500), uint8(3), uint16(20000), uint8(3), uint8(1), uint8(3))    // fanout-limited
	f.Add(int64(7), uint16(2600), uint8(0), uint16(30000), uint8(24), uint8(20), uint8(3)) // forks
	f.Add(int64(8), uint16(2100), uint8(2), uint16(64), uint8(16), uint8(40), uint8(1))
	f.Add(int64(9), uint16(20), uint8(0), uint16(100), uint8(24), uint8(10), uint8(0)) // one cluster
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shape uint8, spread uint16,
		fanout uint8, capHi uint8, par uint8) {
		size := 1 + int(n)%3000
		opts := Options{MaxFanout: 2 + int(fanout)%255, MaxCap: 60}
		// Every single sink must fit the cap limit, or no bisection ends.
		hi := float64(capHi%240) / 4
		sinks := fuzzSinks(seed, size, shape, int64(spread), hi)
		want := clusterSinksBySort(sinks, opts)
		got := clusterSinks(sinks, opts, []int{0, 1, 3}[par%3])
		if len(got) != len(want) {
			t.Fatalf("%d clusters, want %d", len(got), len(want))
		}
		for ci := range want {
			if len(got[ci]) != len(want[ci]) {
				t.Fatalf("cluster %d has %d members, want %d", ci, len(got[ci]), len(want[ci]))
			}
			for k := range want[ci] {
				if got[ci][k] != want[ci][k] {
					t.Fatalf("cluster %d member %d = %+v, want %+v", ci, k, got[ci][k], want[ci][k])
				}
			}
		}
	})
}
