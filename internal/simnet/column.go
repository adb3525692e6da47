package simnet

import (
	"repro/internal/digraph"
)

// Residual routing columns. One reverse BFS per destination (bfsColumn)
// builds every shortest-path table: NewTableRouter for every
// destination, and fault and heal routing on demand over the digraph
// minus the arcs they hold down. A column costs O(n+M) time, 4n bytes.
//
// Shift routing reads no column while a packet's remaining path avoids
// every down arc: in B(d, D) a walk of length t ≤ D is forced (Def 2.2),
// so each pair has one shortest path, isomorphisms (the OTIS witness)
// keep that, and removing arcs never shortens a distance — that path is
// the column's own choice.

// residual routes g minus a set of down arcs through the reverse CSR
// of its live arcs: entries base[v] to base[v+1] are the arcs into v,
// entry i being out-arc arc[i] of node tail[i], in ascending (tail, arc)
// order. A destination's column is built on its first use.
type residual struct {
	g               *digraph.Digraph
	arcBase         []int32
	down            []uint64  // bit f ⇔ flat arc f is down; nil when none is
	base, tail, arc []int32   // built by reverse
	cols            [][]int32 // by destination; nil until built
	seen, queue     []int32
}

// newResidual returns the routing of g (CSR arcBase) minus down.
func newResidual(g *digraph.Digraph, arcBase []int32, down []Arc) *residual {
	r := &residual{g: g, arcBase: arcBase}
	for _, a := range down {
		if r.down == nil {
			r.down = make([]uint64, (int(arcBase[g.N()])+63)/64)
		}
		f := int(arcBase[a.Tail]) + a.Index
		r.down[f>>6] |= 1 << (uint(f) & 63)
	}
	return r
}

// reverse builds the reverse CSR of the live arcs.
func (r *residual) reverse() {
	g, n := r.g, r.g.N()
	guardIndexInt32(n, "nodes")
	guardIndexInt32(g.M(), "arcs")
	live := func(f int) bool { return r.down == nil || r.down[f>>6]&(1<<(uint(f)&63)) == 0 }
	r.base = make([]int32, n+1)
	f := 0
	for u := 0; u < n; u++ {
		for _, v := range g.Out(u) {
			if live(f) {
				r.base[v+1]++
			}
			f++
		}
	}
	for v := 0; v < n; v++ {
		r.base[v+1] += r.base[v]
	}
	r.tail, r.arc = make([]int32, r.base[n]), make([]int32, r.base[n])
	fill := make([]int32, n)
	f = 0
	for u := 0; u < n; u++ {
		for k, v := range g.Out(u) {
			if live(f) {
				slot := r.base[v] + fill[v]
				r.tail[slot], r.arc[slot] = int32(u), int32(k)
				fill[v]++
			}
			f++
		}
	}
}

// bfsColumn runs the reverse BFS of r from dst and stores at
// arcs[u*stride+off], for every node u ≠ dst that reaches dst, the arc
// that discovered u: ties go to the head dequeued first, then to the
// lowest (tail, arc). seen (length n) must not hold mark yet; queue is
// scratch with capacity n.
//
//lint:hotpath
func bfsColumn[T int8 | int32](r *residual, dst int, arcs []T, stride, off int, seen []int32, mark int32, queue []int32) {
	base, tail, arc := r.base, r.tail, r.arc
	seen[dst] = mark
	//lint:ignore slabindex dst < n, which reverse's guardIndexInt32 bounds
	queue = append(queue[:0], int32(dst))
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for i := base[v]; i < base[v+1]; i++ {
			u := tail[i]
			if seen[u] == mark {
				continue
			}
			seen[u] = mark
			arcs[int(u)*stride+off] = T(arc[i])
			queue = append(queue, u)
		}
	}
}

// tableOf runs bfsColumn once per destination of r into an n×n slab,
// entry at·n+dst, where pairs with no route stay -1.
func tableOf[T int8 | int32](r *residual) []T {
	n := r.g.N()
	guardIndexInt32(n, "nodes")
	s := make([]T, n*n)
	for i := range s {
		s[i] = -1
	}
	seen, queue := make([]int32, n), make([]int32, 0, n)
	for dst := 0; dst < n; dst++ {
		bfsColumn(r, dst, s, n, dst, seen, int32(dst+1), queue)
	}
	return s
}

// route returns the arc u ≠ dst forwards on toward dst (-1: none):
// shift's arc when shift routes g and its path avoids every down arc,
// else dst's column.
func (r *residual) route(shift *DeBruijnRouter, u, dst int) int {
	if shift != nil {
		t := shift.start(u, dst)
		first, _ := shift.step(u, t)
		clear := true
		for v := u; v != dst && clear; {
			arc, next := shift.step(v, t)
			f := int(r.arcBase[v]) + arc
			clear = r.down == nil || r.down[f>>6]&(1<<(uint(f)&63)) == 0
			v, t = r.g.Out(v)[arc], next
		}
		if clear {
			return first
		}
	}
	return int(r.column(dst)[u])
}

// column returns dst's column: col[u] is the arc u forwards on toward
// dst over the live arcs, -1 when dst is unreachable from u or u = dst.
func (r *residual) column(dst int) []int32 {
	n := r.g.N()
	if r.cols == nil {
		r.reverse()
		r.cols, r.seen, r.queue = make([][]int32, n), make([]int32, n), make([]int32, 0, n)
	}
	if r.cols[dst] == nil {
		col := make([]int32, n)
		for i := range col {
			col[i] = -1
		}
		//lint:ignore slabindex dst < n, which reverse's guardIndexInt32 bounds
		bfsColumn(r, dst, col, 1, 0, r.seen, int32(dst+1), r.queue)
		r.cols[dst] = col
	}
	return r.cols[dst]
}

// walk returns the length of col's path from v to dst — v's distance
// to dst over the live arcs — or digraph.Unreachable.
func (r *residual) walk(col []int32, v, dst int) int32 {
	d := int32(0)
	for ; v != dst; d++ {
		if col[v] < 0 {
			return digraph.Unreachable
		}
		v = r.g.Out(v)[col[v]]
	}
	return d
}
