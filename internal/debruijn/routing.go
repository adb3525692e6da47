package debruijn

import "repro/internal/word"

// Shortest-path routing and broadcasting on B(d, D). The paper motivates
// de Bruijn networks by their routing and broadcasting literature
// ([19], [28], [3]); these routines give the library a working control
// plane and let the simulator route without per-node BFS tables.

// Distance returns the directed distance from src to dst in B(d, D):
// D minus the longest overlap between a suffix of src and a prefix of dst
// (0 when src = dst).
func Distance(src, dst word.Word) int {
	if src.Equal(dst) {
		return 0
	}
	return src.Len() - word.OverlapSuffixPrefix(src, dst)
}

// Route returns a shortest directed path from src to dst in B(d, D) as a
// word sequence including both endpoints. The path repeatedly left-shifts
// in the remaining letters of dst, the classical de Bruijn self-routing
// rule: the hop sequence is determined by dst alone once the overlap is
// known.
func Route(src, dst word.Word) []word.Word {
	if src.D() != dst.D() || src.Len() != dst.Len() {
		panic("debruijn: route endpoints from different digraphs")
	}
	D := src.Len()
	k := word.OverlapSuffixPrefix(src, dst)
	if src.Equal(dst) {
		return []word.Word{src}
	}
	path := make([]word.Word, 0, D-k+1)
	path = append(path, src)
	cur := src
	// After an overlap of length k, the letters still to arrive are dst
	// positions D-k-1 down to 0, fed in most significant first.
	for step := D - k - 1; step >= 0; step-- {
		cur = cur.LeftShiftAppend(dst.Letter(step))
		path = append(path, cur)
	}
	return path
}

// RouteInts is Route on Horner labels, for callers holding integer vertex
// ids (e.g. the network simulator).
func RouteInts(d, D, src, dst int) []int {
	sw := word.MustFromInt(d, D, src)
	dw := word.MustFromInt(d, D, dst)
	path := Route(sw, dw)
	out := make([]int, len(path))
	for i, w := range path {
		out[i] = w.Int()
	}
	return out
}

// NextHop returns the next vertex after src on the canonical shortest path
// to dst, and ok=false when src = dst.
func NextHop(src, dst word.Word) (word.Word, bool) {
	if src.Equal(dst) {
		return src, false
	}
	D := src.Len()
	k := word.OverlapSuffixPrefix(src, dst)
	return src.LeftShiftAppend(dst.Letter(D - k - 1)), true
}

// BroadcastTree returns a BFS arborescence of B(d, D) rooted at root
// (Horner label): parent[v] is the predecessor of v, parent[root] = -1, and
// depth[v] the arc distance from the root. Every vertex is reached within
// depth D, the diameter.
func BroadcastTree(d, D, root int) (parent, depth []int) {
	g := DeBruijn(d, D)
	n := g.N()
	parent = make([]int, n)
	depth = make([]int, n)
	for i := range parent {
		parent[i] = -2
		depth[i] = -1
	}
	parent[root] = -1
	depth[root] = 0
	queue := []int{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Out(u) {
			if parent[v] == -2 {
				parent[v] = u
				depth[v] = depth[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return parent, depth
}
