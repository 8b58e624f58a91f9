package main

import (
	"fmt"
	"math/rand"
	"sort"

	"metarouting/internal/core"
	"metarouting/internal/graph"
	"metarouting/internal/rib"
	"metarouting/internal/serve/wire"
)

// workload fixes one traffic mix: the topology and algebra it serves,
// the prefix plane it announces and the shape of one round of its
// closed-loop traffic.
type workload struct {
	name string
	// expr is the metarouting expression the service is booted on.
	expr string
	// nodes is the ScaleFree node count (two links per joining node, so
	// about 4·nodes arcs); anchors is the number of destination nodes
	// the announcements are anchored at; prefixes is how many distinct
	// prefixes are announced across them.
	nodes, anchors, prefixes int
	// stormArcs lists the storm widths the write rounds cycle through:
	// each storm fails that many distinct arcs in one batch, then
	// restores them in a second batch.
	stormArcs []int
	// getsPerRound single GETs and batchesPerRound binary batches of
	// batchSize queries make one read round; readRoundsPerStorm read
	// rounds run between storms (0: reads run only between the two
	// batches of a storm and after it).
	getsPerRound, batchesPerRound, batchSize, readRoundsPerStorm int
	// boots is how many times one run boots the leader and follower to
	// time set-up; the last boot serves the traffic.
	boots int
	// checkEvery runs the full fixpoint oracle on both roles after every
	// checkEvery-th storm (and always at the start and the end).
	checkEvery int
}

// workloads are the benchmark's three traffic mixes; README.md records
// why each exists and which layers it is meant to stress.
var workloads = map[string]workload{
	"lookup": {
		name: "lookup", expr: "lex(delay(32,3), hops(8))",
		nodes: 100000, anchors: 8, prefixes: 3000,
		stormArcs:    []int{4},
		getsPerRound: 16, batchesPerRound: 1, batchSize: 256, readRoundsPerStorm: 16,
		boots: 5, checkEvery: 64,
	},
	"storm": {
		name: "storm", expr: "lex(delay(32,3), hops(8))",
		nodes: 100000, anchors: 8, prefixes: 3000,
		stormArcs:    []int{4},
		getsPerRound: 4, batchesPerRound: 1, batchSize: 256, readRoundsPerStorm: 0,
		boots: 5, checkEvery: 64,
	},
	"churn": {
		name: "churn", expr: "lex(delay(32,3), bw(8))",
		nodes: 5000, anchors: 32, prefixes: 512,
		// Two 64-arc storms per 4-arc storm: the widths' records differ
		// by an order of magnitude, and an even mix would put the median
		// in the gap between them, where it jumps from run to run. The
		// 64-arc records, sums over many arcs, vary least.
		stormArcs:    []int{4, 64, 64},
		getsPerRound: 16, batchesPerRound: 2, batchSize: 256, readRoundsPerStorm: 0,
		boots: 5, checkEvery: 16,
	},
}

// topologySeed seeds every workload's ScaleFree generator.
const topologySeed = 1

// Query kinds, mirroring the three /v1/route forms.
const (
	qDest   = wire.QueryDest
	qPrefix = wire.QueryPrefix
	qAddr   = wire.QueryAddr
)

// query is one generated route query with the answer the independent
// linear-scan LPM expects for its destination part.
type query struct {
	kind   byte
	from   int
	dest   int        // qDest
	prefix rib.Prefix // qPrefix (Addr/Len) and qAddr (Addr, Len 32)
	// want is the anchor the linear scan resolves the query to (-1:
	// no announcement covers it).
	want int
}

// inputs is everything a run generates before the first boot: the
// program receives only these.
type inputs struct {
	w       workload
	nodes   int
	arcs    []graph.Arc
	anchors []int
	// anns is the raw announcement list, before the service aggregates
	// it; origins are filled in at boot from the inferred algebra.
	anns []rib.PrefixOrigin
	// queries is the read pool the traffic cycles through.
	queries []query
	// storms is the write sequence: each entry is one storm's arcs.
	storms [][]int
}

// genInputs draws a run's inputs from its seed. The algebra is inferred
// here only to learn its arc-label count; boots infer it again, timed.
func genInputs(w workload, seed int64) (*inputs, error) {
	a, err := core.InferString(w.expr)
	if err != nil {
		return nil, err
	}
	labels := 4
	if a.OT.F.Finite() {
		labels = a.OT.F.Size()
	}
	// The topology is the same for every seed: record sizes and swap
	// costs depend strongly on where the destinations sit in the graph,
	// and that structure would otherwise dominate the spread between
	// runs. The seed draws everything else.
	g := graph.ScaleFree(rand.New(rand.NewSource(topologySeed)), w.nodes, 2, graph.UniformLabels(labels))
	r := rand.New(rand.NewSource(seed))
	in := &inputs{w: w, nodes: g.N, arcs: append([]graph.Arc(nil), g.Arcs...)}
	for i := 0; i < w.anchors; i++ {
		in.anchors = append(in.anchors, i*g.N/w.anchors)
	}
	in.anns = genPrefixes(r, in.anchors, w.prefixes)
	in.queries = genQueries(r, in, 4096)
	in.storms = genStorms(r, len(in.arcs), w.stormArcs, 1024)
	return in, nil
}

// genPrefixes draws a nested announcement set: a few short root blocks
// per anchor, then more-specifics of random existing prefixes. A child
// keeps its parent's anchor one time in four, so aggregation suppresses
// a share of the set; the rest alternate anchors down the nesting.
func genPrefixes(r *rand.Rand, anchors []int, n int) []rib.PrefixOrigin {
	seen := make(map[rib.Prefix]bool, n)
	out := make([]rib.PrefixOrigin, 0, n)
	add := func(p rib.Prefix, node int) {
		if !seen[p] {
			seen[p] = true
			out = append(out, rib.PrefixOrigin{Prefix: p, Node: node})
		}
	}
	for i := 0; i < 2*len(anchors); i++ {
		add(rib.MakePrefix(r.Uint32(), uint8(8+r.Intn(5))), anchors[i%len(anchors)])
	}
	for len(out) < n {
		parent := out[r.Intn(len(out))]
		if parent.Prefix.Len >= 32 {
			continue
		}
		room := 32 - int(parent.Prefix.Len)
		step := 1 + r.Intn(min(8, room))
		child := rib.MakePrefix(parent.Prefix.Addr|(r.Uint32()&^mask(parent.Prefix.Len)), parent.Prefix.Len+uint8(step))
		node := parent.Node
		if r.Intn(4) != 0 {
			node = anchors[r.Intn(len(anchors))]
		}
		add(child, node)
	}
	return out
}

// mask is the network mask of a prefix length.
func mask(l uint8) uint32 {
	if l == 0 {
		return 0
	}
	return ^uint32(0) << (32 - l)
}

// genQueries draws the read pool: a third each of destination, prefix
// and address queries from uniformly random nodes. Prefix queries
// extend a random announcement by up to four bits; address queries fall
// inside a random announcement nine times in ten and anywhere otherwise.
func genQueries(r *rand.Rand, in *inputs, n int) []query {
	qs := make([]query, n)
	for i := range qs {
		q := query{kind: byte(i % 3), from: r.Intn(in.nodes)}
		switch q.kind {
		case qDest:
			q.dest = in.anchors[r.Intn(len(in.anchors))]
		case qPrefix:
			p := in.anns[r.Intn(len(in.anns))].Prefix
			l := min(32, int(p.Len)+r.Intn(5))
			q.prefix = rib.MakePrefix(p.Addr|(r.Uint32()&^mask(p.Len)), uint8(l))
		case qAddr:
			addr := r.Uint32()
			if r.Intn(10) != 0 {
				p := in.anns[r.Intn(len(in.anns))].Prefix
				addr = p.Addr | (addr &^ mask(p.Len))
			}
			q.prefix = rib.MakePrefix(addr, 32)
		}
		q.want = linearMatch(in.anns, q)
		qs[i] = q
	}
	return qs
}

// genStorms draws n storms cycling through the widths; each picks
// distinct arcs uniformly.
func genStorms(r *rand.Rand, arcs int, widths []int, n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		k := widths[i%len(widths)]
		pick := make(map[int]bool, k)
		s := make([]int, 0, k)
		for len(s) < k {
			a := r.Intn(arcs)
			if !pick[a] {
				pick[a] = true
				s = append(s, a)
			}
		}
		sort.Ints(s)
		out[i] = s
	}
	return out
}

// linearMatch is the oracle's longest-prefix match: a scan of the raw
// announcement list, independent of the service's trie and its
// aggregation. It returns the anchor of the longest announcement that
// covers the query, or -1. Destination queries resolve to themselves.
func linearMatch(anns []rib.PrefixOrigin, q query) int {
	if q.kind == qDest {
		return q.dest
	}
	best, bestLen := -1, -1
	for _, a := range anns {
		if int(a.Prefix.Len) > bestLen && a.Prefix.Covers(q.prefix) {
			best, bestLen = a.Node, int(a.Prefix.Len)
		}
	}
	return best
}

// checkMatch verifies one longest-match answer against the raw
// announcement list: the matched prefix must be announced and cover
// the query, and every longer announcement covering the query must
// share the matched anchor — aggregation may answer through a covering
// prefix only when the more-specifics it suppressed point at the same
// node.
func checkMatch(anns []rib.PrefixOrigin, q query, matched rib.Prefix, node int, ok bool) error {
	if q.want < 0 {
		if ok {
			return fmt.Errorf("query %v matched %v, but no announcement covers it", q.prefix, matched)
		}
		return nil
	}
	if !ok {
		return fmt.Errorf("query %v unmatched, linear scan finds anchor %d", q.prefix, q.want)
	}
	if node != q.want {
		return fmt.Errorf("query %v resolved to anchor %d, linear scan finds %d", q.prefix, node, q.want)
	}
	announced := false
	for _, a := range anns {
		if a.Prefix == matched {
			announced = a.Node == node
		}
		if a.Prefix.Covers(q.prefix) && a.Prefix.Len > matched.Len && a.Node != node {
			return fmt.Errorf("query %v answered by %v, but longer announcement %v points at %d", q.prefix, matched, a.Prefix, a.Node)
		}
	}
	if !announced || !matched.Covers(q.prefix) {
		return fmt.Errorf("query %v answered by %v (anchor %d), which is not an announcement covering it", q.prefix, matched, node)
	}
	return nil
}
