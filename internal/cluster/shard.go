// Sharded consolidation: the parallel strategy behind
// Builder.BuildSharded. Sibling sets are partitioned across workers,
// each worker collapses its shard with a local dense union-find
// (int32 parents over a shard-local ASN dictionary — no per-operation
// map hashing once an ASN is registered), and the per-shard frontiers
// (one edge from each element to its local root) are merged into a
// global dense structure. Components come out in the same deterministic
// order UnionFind.Components uses — descending size, ties broken by the
// smallest member — so the build is byte-identical at any worker
// count, and to the map-based UnionFind oracle, under WriteJSONL.
package cluster

import (
	"slices"
	"sync"

	"github.com/nu-aqualab/borges/internal/asnum"
)

// denseDSU is a union-find over dense int32 indexes with path halving
// and union by size. It avoids the map lookups that dominate the
// ASN-keyed UnionFind: elements are registered once in a dictionary and
// every subsequent find/union is pure array arithmetic.
type denseDSU struct {
	parent []int32
	size   []int32
}

func (d *denseDSU) grow() int32 {
	id := int32(len(d.parent))
	d.parent = append(d.parent, id)
	d.size = append(d.size, 1)
	return id
}

func (d *denseDSU) find(x int32) int32 {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]] // path halving
		x = d.parent[x]
	}
	return x
}

func (d *denseDSU) union(a, b int32) {
	ra, rb := d.find(a), d.find(b)
	if ra == rb {
		return
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.size[ra] += d.size[rb]
}

// shard is one worker's private consolidation state: a local ASN
// dictionary plus a dense union-find over it.
type shard struct {
	index map[asnum.ASN]int32
	elems []asnum.ASN
	dsu   denseDSU
}

func (s *shard) id(a asnum.ASN) int32 {
	if i, ok := s.index[a]; ok {
		return i
	}
	i := s.dsu.grow()
	s.index[a] = i
	s.elems = append(s.elems, a)
	return i
}

func (s *shard) consolidate(sets []SiblingSet) {
	for _, set := range sets {
		first := s.id(set.ASNs[0])
		for _, a := range set.ASNs[1:] {
			s.dsu.union(first, s.id(a))
		}
	}
}

// shardedComponents partitions sets across workers, consolidates each
// shard locally in parallel, merges the shard frontiers into a global
// dense union-find, and extracts deterministically ordered components.
func shardedComponents(sets []SiblingSet, universe []asnum.ASN, workers int) [][]asnum.ASN {
	// Tiny inputs are not worth goroutine + merge overhead.
	if workers > 1 && len(sets) < 2*workers {
		workers = 1
	}
	if workers == 1 {
		// One worker needs no frontier: consolidate straight into the
		// global dictionary. The union order differs from the sharded
		// path but the final partition — and therefore the canonical
		// component order — does not.
		g := &shard{index: make(map[asnum.ASN]int32, len(universe))}
		for _, a := range universe {
			g.id(a)
		}
		g.consolidate(sets)
		return denseComponents(g, 1)
	}

	shards := make([]*shard, workers)
	chunk := (len(sets) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(sets))
		sh := &shard{index: make(map[asnum.ASN]int32, (hi-lo)*2)}
		shards[w] = sh
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(sh *shard, part []SiblingSet) {
			defer wg.Done()
			sh.consolidate(part)
		}(sh, sets[lo:hi])
	}
	wg.Wait()

	// Global merge: register every universe ASN and every shard element,
	// then union each element with its shard-local root. Frontier edges
	// (element, root) reproduce the shard's partition exactly, and
	// cross-shard overlaps connect through shared global IDs.
	g := &shard{index: make(map[asnum.ASN]int32, len(universe))}
	for _, a := range universe {
		g.id(a)
	}
	for _, sh := range shards {
		for lid, a := range sh.elems {
			root := sh.dsu.find(int32(lid))
			ga := g.id(a)
			if int32(lid) != root {
				g.dsu.union(ga, g.id(sh.elems[root]))
			}
		}
	}
	return denseComponents(g, workers)
}

// denseComponents groups a global shard's elements by root and orders
// the result exactly like UnionFind.Components: members ascending,
// components by descending size with ties broken by the smallest
// member.
func denseComponents(g *shard, workers int) [][]asnum.ASN {
	n := len(g.elems)
	if n == 0 {
		return nil
	}
	// Counting sort by root: count members per root, carve one backing
	// array into per-component windows, place members.
	counts := make([]int32, n)
	roots := make([]int32, n)
	for i := 0; i < n; i++ {
		r := g.dsu.find(int32(i))
		roots[i] = r
		counts[r]++
	}
	starts := make([]int32, n+1)
	numComps := 0
	var off int32
	for r := 0; r < n; r++ {
		starts[r] = off
		if counts[r] > 0 {
			numComps++
			off += counts[r]
		}
	}
	starts[n] = off
	backing := make([]asnum.ASN, n)
	fill := make([]int32, n)
	for i := 0; i < n; i++ {
		r := roots[i]
		backing[starts[r]+fill[r]] = g.elems[i]
		fill[r]++
	}
	out := make([][]asnum.ASN, 0, numComps)
	for r := 0; r < n; r++ {
		if counts[r] > 0 {
			out = append(out, backing[starts[r]:starts[r]+counts[r]:starts[r]+counts[r]])
		}
	}
	sortComponents(out, workers)
	return out
}

// sortComponents establishes the canonical component order shared by
// the sequential and sharded builds: members ascending within each
// component, components by descending size with ties broken by the
// smallest member. Member sorts fan out across workers; the outer sort
// is a single pass over (size, first-member) keys.
func sortComponents(comps [][]asnum.ASN, workers int) {
	if workers > 1 && len(comps) >= 2*workers {
		var wg sync.WaitGroup
		chunk := (len(comps) + workers - 1) / workers
		for lo := 0; lo < len(comps); lo += chunk {
			hi := min(lo+chunk, len(comps))
			wg.Add(1)
			go func(part [][]asnum.ASN) {
				defer wg.Done()
				for _, members := range part {
					asnum.Sort(members)
				}
			}(comps[lo:hi])
		}
		wg.Wait()
	} else {
		for _, members := range comps {
			asnum.Sort(members)
		}
	}
	slices.SortFunc(comps, func(a, b []asnum.ASN) int {
		if len(a) != len(b) {
			return len(b) - len(a)
		}
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
}
