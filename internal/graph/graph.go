// Package graph provides the communication topologies for the
// graph-restricted extension of the noisy PULL model (experiment E18).
//
// The paper's model is the complete graph: every agent samples uniformly
// from the whole population. Restricting samples to graph neighborhoods
// probes how much "well-mixedness" the results actually need: random
// regular graphs are expanders and behave like the complete graph, while
// low-dimensional topologies (rings) break the uniform-source-access
// assumption underlying the weak-opinion analysis.
//
// Graphs are simple (no self-loops, no multi-edges) and undirected.
package graph

import (
	"fmt"
	"math"

	"noisypull/internal/rng"
)

// Graph is an undirected simple graph on vertices 0..n-1 stored in
// compressed sparse row form: one flat neighbor slice plus per-vertex
// offsets. The layout costs two allocations per graph instead of one per
// vertex and keeps each adjacency list contiguous, which matters to the
// per-trial graph construction of experiment E18. Construct with one of the
// generators; the zero value is not usable.
type Graph struct {
	n    int
	off  []int32 // n+1 offsets into nbrs; vertex v owns nbrs[off[v]:off[v+1]]
	nbrs []int32
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// Neighbors returns the adjacency list of v without copying; callers must
// not modify it.
func (g *Graph) Neighbors(v int) []int32 { return g.nbrs[g.off[v]:g.off[v+1]] }

// CSR returns the graph's raw compressed-sparse-row arrays without copying:
// off has n+1 entries and vertex v's neighbors are nbrs[off[v]:off[v+1]].
// Bulk kernels that sweep whole vertex ranges use it to iterate adjacency
// lists with one shared bounds computation instead of a Neighbors call (and
// its implied slice-header construction) per vertex. Callers must not
// modify either slice.
func (g *Graph) CSR() (off, nbrs []int32) { return g.off, g.nbrs }

// MaxDegree returns the largest vertex degree.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// MinDegree returns the smallest vertex degree.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := 1; v < g.n; v++ {
		if d := g.Degree(v); d < min {
			min = d
		}
	}
	return min
}

// IsConnected reports whether the graph is connected (BFS).
func (g *Graph) IsConnected() bool {
	if g.n == 0 {
		return true
	}
	seen := make([]bool, g.n)
	queue := make([]int32, 0, g.n)
	queue = append(queue, 0)
	seen[0] = true
	visited := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(int(v)) {
			if !seen[w] {
				seen[w] = true
				visited++
				queue = append(queue, w)
			}
		}
	}
	return visited == g.n
}

// build assembles a Graph from an edge set given as pair slices. Neighbors
// are laid down in edge order, matching what per-vertex appends would
// produce, so the CSR layout does not change any sampling trace.
func build(n int, us, vs []int32) *Graph {
	off := make([]int32, n+1)
	for i := range us {
		off[us[i]+1]++
		off[vs[i]+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	nbrs := make([]int32, off[n])
	cur := make([]int32, n)
	copy(cur, off[:n])
	for i := range us {
		u, v := us[i], vs[i]
		nbrs[cur[u]] = v
		cur[u]++
		nbrs[cur[v]] = u
		cur[v]++
	}
	return &Graph{n: n, off: off, nbrs: nbrs}
}

// fitsInt32 reports whether n vertices with perVertex half-edges each fit
// build's int32 vertex ids and offsets. It needs n ≥ 1.
func fitsInt32(n, perVertex int) bool {
	return n <= math.MaxInt32 && perVertex <= math.MaxInt32/n
}

// Ring returns the circulant graph on n vertices where every vertex is
// adjacent to its k nearest neighbors on each side (degree 2k). It requires
// n ≥ 2k+1, k ≥ 1 and 2·n·k ≤ math.MaxInt32.
func Ring(n, k int) (*Graph, error) {
	if k < 1 || n < 2*k+1 {
		return nil, fmt.Errorf("graph: Ring(n=%d, k=%d) needs n >= 2k+1, k >= 1", n, k)
	}
	if !fitsInt32(n, 2*k) {
		return nil, fmt.Errorf("graph: Ring(n=%d, k=%d) exceeds int32 vertex ids or offsets", n, k)
	}
	var us, vs []int32
	for v := 0; v < n; v++ {
		for d := 1; d <= k; d++ {
			w := (v + d) % n
			us = append(us, int32(v))
			vs = append(vs, int32(w))
		}
	}
	return build(n, us, vs), nil
}

// RandomRegular returns a random d-regular simple graph via the pairing
// (configuration) model followed by random edge-swap repair of self-loops
// and duplicate edges (pure rejection is infeasible beyond small d: the
// acceptance probability is ≈ exp(−(d²−1)/4)). A dense shape, 2d > n−1,
// stalls the repair, so it is built as the complement of the
// (n−1−d)-regular graph under the same seed. It requires n·d even,
// 1 ≤ d < n and n·d ≤ math.MaxInt32. Building takes O(n·d) time plus O(d)
// per swap attempt, and about 12·n·d bytes at its peak.
func RandomRegular(n, d int, seed uint64) (*Graph, error) {
	if d < 1 || d >= n {
		return nil, fmt.Errorf("graph: RandomRegular degree %d out of range for n = %d", d, n)
	}
	if !fitsInt32(n, d) {
		return nil, fmt.Errorf("graph: RandomRegular(n=%d, d=%d) exceeds int32 vertex ids or offsets", n, d)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: RandomRegular needs n·d even, got %d·%d", n, d)
	}
	if 2*d > n-1 {
		return denseRegular(n, d, seed)
	}
	r := rng.New(seed)
	half := make([]int32, n*d)
	for v := 0; v < n; v++ {
		for j := 0; j < d; j++ {
			half[v*d+j] = int32(v)
		}
	}
	r.Shuffle(len(half), func(i, j int) { half[i], half[j] = half[j], half[i] })

	m := len(half) / 2
	us := make([]int32, m)
	vs := make([]int32, m)
	for i := 0; i < m; i++ {
		us[i], vs[i] = half[2*i], half[2*i+1]
	}
	// Reuse half as n rows of d entries: row v holds v's neighbor multiset,
	// listing v twice per self-loop at v. Swaps keep every degree at d, so
	// each row stays exactly full.
	fill := make([]int32, n)
	for i := 0; i < m; i++ {
		u, v := us[i], vs[i]
		half[int(u)*d+int(fill[u])] = v
		fill[u]++
		half[int(v)*d+int(fill[v])] = u
		fill[v]++
	}
	row := func(v int32) []int32 { return half[int(v)*d : int(v)*d+d] }
	// count returns the multiplicity of edge (a,b), a ≠ b.
	count := func(a, b int32) int {
		k := 0
		for _, w := range row(a) {
			if w == b {
				k++
			}
		}
		return k
	}
	// replace overwrites one occurrence of old in v's row with new.
	replace := func(v, old, new int32) {
		r := row(v)
		for k, w := range r {
			if w == old {
				r[k] = new
				return
			}
		}
	}
	// bad reports whether edge i is a self-loop or part of a multi-edge.
	bad := func(i int32) bool { return us[i] == vs[i] || count(us[i], vs[i]) > 1 }
	// cand lists the edges that start out bad, in ascending order, and the
	// repair works on the first of them that is still bad. No other edge
	// ever turns bad: a swap lowers the multiplicities of the edges it
	// removes, and its new edges (a,d2),(c,b) are absent before it, so they
	// collide only when both removed edges were self-loops, (a,a) and (c,c)
	// becoming a double edge (a,c). Swaps create no self-loops, so both of
	// those edges started out bad, stayed bad, and are still in cand.
	var cand []int32
	for i := int32(0); i < int32(m); i++ {
		if bad(i) {
			cand = append(cand, i)
		}
	}
	// Repair by random double-edge swaps: replace (a,b),(c,d) with
	// (a,d),(c,b) when neither new edge is a self-loop or already present.
	maxSwaps := 200 * m
	for swaps := 0; swaps < maxSwaps; swaps++ {
		for len(cand) > 0 && !bad(cand[0]) {
			cand = cand[1:]
		}
		if len(cand) == 0 {
			return build(n, us, vs), nil
		}
		i := int(cand[0])
		j := r.Intn(m)
		if j == i {
			continue
		}
		a, b := us[i], vs[i]
		c, d2 := us[j], vs[j]
		// Proposed replacements (a,d2) and (c,b).
		if a == d2 || c == b {
			continue
		}
		if count(a, d2) > 0 || count(c, b) > 0 {
			continue
		}
		replace(a, b, d2)
		replace(b, a, c)
		replace(c, d2, b)
		replace(d2, c, a)
		vs[i], vs[j] = d2, b
	}
	return nil, fmt.Errorf("graph: RandomRegular(n=%d, d=%d) repair did not converge", n, d)
}

// denseRegular returns the complement of the random (n−1−d)-regular graph
// built under seed, which is d-regular and simple; the graph complemented
// is the empty graph when d = n−1. Its n·(n−1−d) is even because n·d and
// n·(n−1) are, and 2(n−1−d) < n−1, so that graph takes the sparse path.
func denseRegular(n, d int, seed uint64) (*Graph, error) {
	var sparse *Graph
	if c := n - 1 - d; c > 0 {
		var err error
		if sparse, err = RandomRegular(n, c, seed); err != nil {
			return nil, err
		}
	}
	m := n * d / 2
	us := make([]int32, 0, m)
	vs := make([]int32, 0, m)
	adjacent := make([]bool, n) // v's neighbors in the sparse graph
	for v := 0; v < n; v++ {
		if sparse != nil {
			for _, w := range sparse.Neighbors(v) {
				adjacent[w] = true
			}
		}
		for w := v + 1; w < n; w++ {
			if !adjacent[w] {
				us = append(us, int32(v))
				vs = append(vs, int32(w))
			}
		}
		if sparse != nil {
			for _, w := range sparse.Neighbors(v) {
				adjacent[w] = false
			}
		}
	}
	return build(n, us, vs), nil
}

// ErdosRenyi returns a G(n, p) random graph. Isolated vertices are
// possible at small p; callers that need positive minimum degree should
// check MinDegree. It requires n ≤ math.MaxInt32 and fails if it draws more
// than math.MaxInt32/2 edges.
func ErdosRenyi(n int, p float64, seed uint64) (*Graph, error) {
	if n < 1 || p < 0 || p > 1 {
		return nil, fmt.Errorf("graph: ErdosRenyi(n=%d, p=%v) invalid", n, p)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: ErdosRenyi(n=%d) exceeds int32 vertex ids", n)
	}
	r := rng.New(seed)
	var us, vs []int32
	for v := 0; v < n; v++ {
		for w := v + 1; w < n; w++ {
			if r.Bernoulli(p) {
				us = append(us, int32(v))
				vs = append(vs, int32(w))
			}
		}
	}
	if len(us) > math.MaxInt32/2 {
		return nil, fmt.Errorf("graph: ErdosRenyi(n=%d, p=%v) drew %d edges, too many for int32 offsets", n, p, len(us))
	}
	return build(n, us, vs), nil
}
