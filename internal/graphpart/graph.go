// Package graphpart implements a balanced k-way minimum-edge-cut graph
// partitioner. It stands in for METIS in the Schism baseline (paper §2)
// and in JECB's statistics-based mapping fallback (§5.3): both build a
// co-access graph and ask for a k-way partition that cuts as little edge
// weight as possible while keeping partition sizes (vertex counts)
// balanced.
//
// The heuristic is: (1) decompose into connected components; (2) split
// components too heavy for one partition by breadth-first region growing;
// (3) bin-pack the resulting blocks onto partitions largest-first; and
// (4) refine with Fiduccia–Mattheyses-style boundary moves under a balance
// constraint. OLTP co-access graphs (TPC-C warehouses, TATP subscribers)
// are mostly unions of small clusters, which steps 1–3 place with zero or
// near-zero cut; step 4 cleans up the remainder — the paper itself
// attributes Schism's residual error to "the approximate nature of the
// min-cut graph partitioning algorithm".
package graphpart

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/obs"
	"repro/internal/partition"
)

// Graph is an undirected graph with weighted edges.
type Graph struct {
	adj []map[int]float64
}

// New returns a graph with n vertices and no edges.
func New(n int) *Graph {
	return &Graph{adj: make([]map[int]float64, n)}
}

// Len returns the number of vertices.
func (g *Graph) Len() int { return len(g.adj) }

// AddEdge adds weight w to the undirected edge {u, v}; parallel additions
// accumulate. Self-loops are ignored.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u == v {
		return
	}
	if g.adj[u] == nil {
		g.adj[u] = make(map[int]float64)
	}
	if g.adj[v] == nil {
		g.adj[v] = make(map[int]float64)
	}
	g.adj[u][v] += w
	g.adj[v][u] += w
}

// Neighbors iterates over the neighbors of u in ascending vertex order.
// The deterministic order matters: the partitioning heuristics break ties
// by first-seen, and map-iteration order would make results differ
// between runs.
func (g *Graph) Neighbors(u int, fn func(v int, w float64)) {
	for _, v := range g.sortedNeighbors(u) {
		fn(v, g.adj[u][v])
	}
}

func (g *Graph) sortedNeighbors(u int) []int {
	out := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// EdgeCut returns the total weight of edges crossing partitions under the
// given assignment.
func EdgeCut(g *Graph, parts []int) float64 {
	cut := 0.0
	for u := range g.adj {
		for v, w := range g.adj[u] {
			if u < v && parts[u] != parts[v] {
				cut += w
			}
		}
	}
	return cut
}

// PartWeights returns the number of vertices in each partition.
func PartWeights(parts []int, k int) []int {
	out := make([]int, k)
	for _, p := range parts {
		out[p]++
	}
	return out
}

const (
	// balance is the maximum allowed ratio of a partition's size to the
	// average, matching the slack conventional min-cut tools allow;
	// tightening it trades edge cut for balance.
	balance float64 = 1.25
	// refinePasses bounds FM refinement sweeps.
	refinePasses = 8
)

// Options controls the partitioner.
type Options struct {
	// Seed makes runs reproducible.
	Seed int64
}

// Partition computes a k-way assignment of the graph's vertices.
func Partition(g *Graph, k int, opts Options) ([]int, error) {
	if k <= 0 {
		return nil, fmt.Errorf("graphpart: k = %d", k)
	}
	obs.Inc("graphpart.partitions")
	obs.Observe("graphpart.graph_vertices", float64(g.Len()))
	n := g.Len()
	parts := make([]int, n)
	if k == 1 || n == 0 {
		return parts, nil
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	blocks := components(g)
	target := float64(n) / float64(k)
	blocks = splitHeavyBlocks(g, blocks, target, rng)

	// Bin-pack blocks largest-first onto the lightest partition. When the
	// packing is too imbalanced — block granularity does not divide the
	// target — split the largest block of the heaviest bin and repack.
	for iter := 0; ; iter++ {
		weights := pack(blocks, parts, k)
		if imbalanceOf(weights) <= balance || iter >= 2*k {
			break
		}
		heavy := 0
		for p := 1; p < k; p++ {
			if weights[p] > weights[heavy] {
				heavy = p
			}
		}
		li := -1
		for i, b := range blocks {
			if parts[b[0]] != heavy || len(b) < 2 {
				continue
			}
			if li < 0 || len(b) > len(blocks[li]) {
				li = i
			}
		}
		if li < 0 {
			break
		}
		big := blocks[li]
		half := grow(g, big, float64(len(big))/2, rng)
		var inHalf partition.Set
		for _, v := range half {
			inHalf.Add(v)
		}
		var rest []int
		for _, v := range big {
			if !inHalf.Has(v) {
				rest = append(rest, v)
			}
		}
		if len(half) == 0 || len(rest) == 0 {
			break
		}
		blocks[li] = half
		blocks = append(blocks, rest)
	}

	refine(g, parts, k)
	return parts, nil
}

// pack assigns blocks to partitions largest-first onto the lightest bin,
// writing the assignment into parts and returning the bin sizes.
func pack(blocks [][]int, parts []int, k int) []int {
	sort.Slice(blocks, func(i, j int) bool { return len(blocks[i]) > len(blocks[j]) })
	weights := make([]int, k)
	for _, b := range blocks {
		best := 0
		for p := 1; p < k; p++ {
			if weights[p] < weights[best] {
				best = p
			}
		}
		for _, v := range b {
			parts[v] = best
		}
		weights[best] += len(b)
	}
	return weights
}

// imbalanceOf returns max size over mean size.
func imbalanceOf(weights []int) float64 {
	total, maxw := 0, 0
	for _, w := range weights {
		total += w
		if w > maxw {
			maxw = w
		}
	}
	if total == 0 {
		return 1
	}
	return float64(maxw) / (float64(total) / float64(len(weights)))
}

// blockComponents returns the connected components of the subgraph
// induced by the block's vertices.
func blockComponents(g *Graph, block []int) [][]int {
	var inBlock, seen partition.Set
	for _, v := range block {
		inBlock.Add(v)
	}
	var out [][]int
	for _, s := range block {
		if seen.Has(s) {
			continue
		}
		seen.Add(s)
		comp := []int{}
		stack := []int{s}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range g.sortedNeighbors(u) {
				if inBlock.Has(v) && !seen.Has(v) {
					seen.Add(v)
					stack = append(stack, v)
				}
			}
		}
		out = append(out, comp)
	}
	return out
}

// components returns the connected components as vertex lists.
func components(g *Graph) [][]int {
	n := g.Len()
	seen := make([]bool, n)
	var out [][]int
	var stack []int
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		stack = append(stack[:0], s)
		var comp []int
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range g.sortedNeighbors(u) {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		out = append(out, comp)
	}
	return out
}

// splitHeavyBlocks recursively splits any block larger than the target
// partition size using greedy region growing: grow a region of about
// half the block's size from a low-degree seed, rolling back to the
// minimum-cut prefix. Splitting can disconnect a block, so each block is
// first decomposed into its connected components — growing across a
// disconnected block would glue unrelated clusters into one region.
func splitHeavyBlocks(g *Graph, blocks [][]int, target float64, rng *rand.Rand) [][]int {
	var out [][]int
	queue := append([][]int(nil), blocks...)
	for len(queue) > 0 {
		b := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if float64(len(b)) <= target*1.05 || len(b) < 2 {
			out = append(out, b)
			continue
		}
		if comps := blockComponents(g, b); len(comps) > 1 {
			queue = append(queue, comps...)
			continue
		}
		half := grow(g, b, float64(len(b))/2, rng)
		var inHalf partition.Set
		for _, v := range half {
			inHalf.Add(v)
		}
		var rest []int
		for _, v := range b {
			if !inHalf.Has(v) {
				rest = append(rest, v)
			}
		}
		if len(half) == 0 || len(rest) == 0 {
			out = append(out, b) // cannot split further
			continue
		}
		queue = append(queue, half, rest)
	}
	return out
}

// grow returns a connected region of the block of roughly the requested
// size, grown greedily from the block's lowest-degree vertex: at each
// step the frontier vertex most heavily connected to the region joins it.
// Heavy intra-cluster edges therefore pull whole clusters in before any
// light cross-cluster edge is followed, keeping the implied cut small.
func grow(g *Graph, block []int, want float64, rng *rand.Rand) []int {
	seed := block[0]
	for _, v := range block[1:] {
		if g.Degree(v) < g.Degree(seed) {
			seed = v
		}
	}
	var inBlock, inRegion partition.Set
	for _, v := range block {
		inBlock.Add(v)
	}
	// gain[v] = edge weight from v to the current region; h is a lazy
	// max-heap over (gain, vertex) snapshots.
	gain := map[int]float64{}
	h := &gainHeap{}
	push := func(v int) {
		h.push(gainEntry{v: v, gain: gain[v]})
	}
	var region []int
	w, cut := 0.0, 0.0 // the region's size and cut weight
	add := func(u int) {
		inRegion.Add(u)
		region = append(region, u)
		w++
		// Adding u converts its region edges from cut to internal and
		// exposes its block-internal external edges as new cut.
		for _, v := range g.sortedNeighbors(u) {
			ew := g.adj[u][v]
			if !inBlock.Has(v) {
				continue
			}
			if inRegion.Has(v) {
				cut -= ew
			} else {
				cut += ew
				gain[v] += ew
				push(v)
			}
		}
	}
	// Grow past the target and remember the minimum-cut prefix whose
	// size lies near the target — rolling back to a natural cluster
	// boundary instead of slicing through one.
	overshoot := want * 1.3
	bestLen, bestCut, bestW := 0, 0.0, 0.0
	record := func() {
		ok := w >= want*0.7 && w <= overshoot
		if bestLen == 0 && w >= want {
			// Always have a fallback at first crossing of the target.
			bestLen, bestCut, bestW = len(region), cut, w
			return
		}
		if ok && (bestLen == 0 || cut < bestCut ||
			(cut == bestCut && absf(w-want) < absf(bestW-want))) {
			bestLen, bestCut, bestW = len(region), cut, w
		}
	}
	add(seed)
	record()
	for w < overshoot && h.len() > 0 {
		e := h.pop()
		if inRegion.Has(e.v) || e.gain != gain[e.v] {
			continue // stale entry
		}
		add(e.v)
		record()
	}
	// If growth exhausted a sub-component before reaching the target
	// size, top up with arbitrary remaining vertices.
	if w < want {
		for _, v := range block {
			if w >= want {
				break
			}
			if !inRegion.Has(v) {
				add(v)
				record()
			}
		}
	}
	if bestLen > 0 {
		return region[:bestLen]
	}
	return region
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// gainEntry is one (vertex, gain snapshot) record in the lazy max-heap.
type gainEntry struct {
	v    int
	gain float64
}

// gainHeap is a hand-rolled binary max-heap over gain entries; entries go
// stale when a vertex's gain changes and are skipped on pop.
type gainHeap struct{ es []gainEntry }

func (h *gainHeap) len() int { return len(h.es) }

func (h *gainHeap) push(e gainEntry) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.es[p].gain >= h.es[i].gain {
			break
		}
		h.es[p], h.es[i] = h.es[i], h.es[p]
		i = p
	}
}

func (h *gainHeap) pop() gainEntry {
	top := h.es[0]
	last := len(h.es) - 1
	h.es[0] = h.es[last]
	h.es = h.es[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < last && h.es[l].gain > h.es[big].gain {
			big = l
		}
		if r < last && h.es[r].gain > h.es[big].gain {
			big = r
		}
		if big == i {
			break
		}
		h.es[i], h.es[big] = h.es[big], h.es[i]
		i = big
	}
	return top
}

// refine performs FM-style passes: move boundary vertices to the neighbor
// partition with the highest cut gain, subject to the balance constraint.
func refine(g *Graph, parts []int, k int) {
	weights := PartWeights(parts, k)
	maxW := float64(g.Len()) / float64(k) * balance
	for pass := 0; pass < refinePasses; pass++ {
		obs.Inc("graphpart.refine_passes")
		moved := 0
		for u := 0; u < g.Len(); u++ {
			if g.Degree(u) == 0 {
				continue
			}
			// Connection weight to each partition among neighbors.
			conn := map[int]float64{}
			g.Neighbors(u, func(v int, w float64) {
				conn[parts[v]] += w
			})
			cur := parts[u]
			best, bestGain := cur, 0.0
			targets := make([]int, 0, len(conn))
			for p := range conn {
				targets = append(targets, p)
			}
			sort.Ints(targets)
			for _, p := range targets {
				if p == cur {
					continue
				}
				gain := conn[p] - conn[cur]
				if gain > bestGain && float64(weights[p]+1) <= maxW {
					best, bestGain = p, gain
				}
			}
			if best != cur {
				weights[cur]--
				weights[best]++
				parts[u] = best
				moved++
			}
		}
		if moved == 0 {
			return
		}
	}
}
