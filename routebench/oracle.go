package main

import (
	"fmt"
	"sort"

	"metarouting/internal/graph"
	"metarouting/internal/ost"
	"metarouting/internal/rib"
	"metarouting/internal/value"
)

// oracle checks served routing state against the routing equations,
// evaluated with the algebra's order transform (its preorder and arc
// functions on carrier values) — never with the service's compiled
// tables, solvers or column builders. It reads weights only by their
// rendered names, as clients see them.
type oracle struct {
	ot     *ost.OrderTransform
	base   *graph.Graph
	origin value.V

	// ids interns carrier values met while folding; the memo tables
	// below key on these small integers (-1: not yet evaluated).
	ids   map[value.V]int32
	vals  []value.V
	names []string
	apply [][]int32 // [label][value id] → image id
	cmp   []int8    // [a*cmpN+b] → 1 a<b, 2 a≡b, 3 neither; 0 unknown
	cmpN  int
}

func newOracle(ot *ost.OrderTransform, base *graph.Graph, origin value.V) *oracle {
	return &oracle{ot: ot, base: base, origin: origin, ids: make(map[value.V]int32)}
}

func (o *oracle) intern(v value.V) int32 {
	if id, ok := o.ids[v]; ok {
		return id
	}
	id := int32(len(o.vals))
	o.ids[v] = id
	o.vals = append(o.vals, v)
	o.names = append(o.names, value.Format(v))
	return id
}

// img applies arc function label to the value with id x.
func (o *oracle) img(label int, x int32) int32 {
	for label >= len(o.apply) {
		o.apply = append(o.apply, nil)
	}
	row := o.apply[label]
	if int(x) < len(row) && row[x] >= 0 {
		return row[x]
	}
	y := o.intern(o.ot.F.Fns[label].Apply(o.vals[x]))
	for int(x) >= len(o.apply[label]) {
		o.apply[label] = append(o.apply[label], -1)
	}
	o.apply[label][x] = y
	return y
}

// order compares two value ids under the preorder: 1 when a < b, 2 when
// a ≡ b, 3 otherwise.
func (o *oracle) order(a, b int32) int8 {
	if n := len(o.vals); n > o.cmpN {
		grown := make([]int8, n*n*4)
		for i := 0; i < o.cmpN; i++ {
			copy(grown[i*2*n:], o.cmp[i*o.cmpN:(i+1)*o.cmpN])
		}
		o.cmp, o.cmpN = grown, 2*n
	}
	k := int(a)*o.cmpN + int(b)
	if o.cmp[k] == 0 {
		x, y := o.vals[a], o.vals[b]
		switch {
		case o.ot.Ord.Lt(x, y):
			o.cmp[k] = 1
		case o.ot.Ord.Equiv(x, y):
			o.cmp[k] = 2
		default:
			o.cmp[k] = 3
		}
	}
	return o.cmp[k]
}

func (o *oracle) less(a, b int32) bool { return o.order(a, b) == 1 }
func (o *oracle) same(a, b int32) bool { return o.order(a, b) == 2 }

// stateView is one role's routing state at one version, in the flat
// canonical column form both roles can produce.
type stateView struct {
	role        string
	version     uint64
	disabled    []bool
	unconverged []int
	cols        map[int]*rib.Column
	// name renders a weight index the way the role's HTTP answers do.
	name func(w int32) string
}

// checkState verifies a role's full state: the failure mask it reports
// equals the one the benchmark drove, no destination is unconverged,
// and every column is the routing fixpoint over the masked topology.
func (o *oracle) checkState(v *stateView, disabled []bool, dests []int) error {
	if len(v.disabled) != len(disabled) {
		return fmt.Errorf("%s v%d: %d arcs in the failure mask, want %d", v.role, v.version, len(v.disabled), len(disabled))
	}
	for a := range disabled {
		if v.disabled[a] != disabled[a] {
			return fmt.Errorf("%s v%d: arc %d disabled=%v, the driven events say %v", v.role, v.version, a, v.disabled[a], disabled[a])
		}
	}
	if len(v.unconverged) != 0 {
		return fmt.Errorf("%s v%d: destinations %v reported unconverged", v.role, v.version, v.unconverged)
	}
	if len(v.cols) != len(dests) {
		return fmt.Errorf("%s v%d: %d columns, want %d", v.role, v.version, len(v.cols), len(dests))
	}
	view := o.base.MaskArcs(disabled)
	for _, d := range dests {
		c := v.cols[d]
		if c == nil {
			return fmt.Errorf("%s v%d: no column for destination %d", v.role, v.version, d)
		}
		if !c.Converged {
			return fmt.Errorf("%s v%d: column %d not converged", v.role, v.version, d)
		}
		if err := o.checkColumn(view, c, v.name); err != nil {
			return fmt.Errorf("%s v%d: %w", v.role, v.version, err)
		}
	}
	return nil
}

// checkColumn verifies one destination column against the fixpoint
// equations on view. Each routed node's value is derived by folding the
// arc functions along its served primary next-hop chain from the
// origin; the served weight name must render that value. Then every
// node must be routed exactly when some enabled out-arc reaches a
// routed neighbour, no such arc may offer a strictly better image, and
// the served ECMP set must be exactly the neighbours whose image is
// order-equivalent to the node's weight.
func (o *oracle) checkColumn(view *graph.Graph, c *rib.Column, name func(int32) string) error {
	n := view.N
	d := c.Dest
	if len(c.Slots) != n {
		return fmt.Errorf("column %d has %d slots, topology has %d nodes", d, len(c.Slots), n)
	}
	hops := func(u int) []int32 {
		s := c.Slots[u]
		if s.NhOff < 0 || s.NhLen < 0 || int(s.NhOff+s.NhLen) > len(c.Pool) {
			return nil
		}
		return c.Pool[s.NhOff : s.NhOff+s.NhLen]
	}
	ds := c.Slots[d]
	if !ds.Routed || ds.NhLen != 0 {
		return fmt.Errorf("column %d: destination slot routed=%v with %d next hops", d, ds.Routed, ds.NhLen)
	}
	origin := o.intern(o.origin)
	if got := name(ds.W); got != o.names[origin] {
		return fmt.Errorf("column %d: destination weight %s, origin is %s", d, got, o.names[origin])
	}
	// val[u] is the folded value id of routed u; state 0 unvisited, 1
	// on the current chain, 2 done.
	val := make([]int32, n)
	state := make([]uint8, n)
	val[d], state[d] = origin, 2
	var chain []int
	for u := 0; u < n; u++ {
		if state[u] != 0 || !c.Slots[u].Routed {
			continue
		}
		chain = chain[:0]
		x := u
		for state[x] == 0 {
			if !c.Slots[x].Routed {
				return fmt.Errorf("column %d: node %d's next-hop chain reaches unrouted node %d", d, u, x)
			}
			nh := hops(x)
			if len(nh) == 0 {
				return fmt.Errorf("column %d: routed node %d has no next hop", d, x)
			}
			state[x] = 1
			chain = append(chain, x)
			if nh[0] < 0 || int(nh[0]) >= n {
				return fmt.Errorf("column %d: node %d's next hop %d out of range", d, x, nh[0])
			}
			x = int(nh[0])
		}
		if state[x] == 1 {
			return fmt.Errorf("column %d: forwarding loop through node %d", d, x)
		}
		for i := len(chain) - 1; i >= 0; i-- {
			y := chain[i]
			nh := int(hops(y)[0])
			w, ok := o.arcImage(view, y, nh, val[nh], name(c.Slots[y].W))
			if !ok {
				return fmt.Errorf("column %d: node %d forwards to %d over no enabled arc folding to its weight %s", d, y, nh, name(c.Slots[y].W))
			}
			val[y], state[y] = w, 2
		}
	}
	var want []int32
	for u := 0; u < n; u++ {
		if u == d {
			continue
		}
		routed := c.Slots[u].Routed
		reach := false
		want = want[:0]
		for _, ai := range view.Out(u) {
			a := view.Arcs[ai]
			if !c.Slots[a.To].Routed {
				continue
			}
			reach = true
			if !routed {
				break
			}
			im := o.img(a.Label, val[a.To])
			if o.less(im, val[u]) {
				return fmt.Errorf("column %d: node %d holds %s, arc to %d offers better %s", d, u, o.names[val[u]], a.To, o.names[im])
			}
			if o.same(im, val[u]) {
				want = append(want, int32(a.To))
			}
		}
		if routed != reach {
			return fmt.Errorf("column %d: node %d routed=%v, but a routed enabled neighbour exists=%v", d, u, routed, reach)
		}
		if routed && !sameSet(want, hops(u)) {
			return fmt.Errorf("column %d: node %d ECMP set %v, fixpoint wants %v", d, u, hops(u), want)
		}
	}
	return nil
}

// arcImage folds one hop: the image of next-hop value x over an enabled
// arc u→v whose image renders as want. Parallel arcs may differ in
// label, so any matching one is accepted.
func (o *oracle) arcImage(view *graph.Graph, u, v int, x int32, want string) (int32, bool) {
	for _, ai := range view.Out(u) {
		a := view.Arcs[ai]
		if a.To != v {
			continue
		}
		if im := o.img(a.Label, x); o.names[im] == want {
			return im, true
		}
	}
	return 0, false
}

// checkPath verifies one answered forwarding path: it starts at from,
// ends at dest, visits no node twice, crosses only enabled arcs, and
// folding the arc functions back from the origin reproduces the
// answered weight.
func (o *oracle) checkPath(disabled []bool, path []int, from, dest int, weight string) error {
	if len(path) == 0 || path[0] != from || path[len(path)-1] != dest {
		return fmt.Errorf("path %v does not run from %d to %d", path, from, dest)
	}
	seen := make(map[int]bool, len(path))
	for _, u := range path {
		if seen[u] {
			return fmt.Errorf("path %v revisits node %d", path, u)
		}
		seen[u] = true
	}
	x := o.intern(o.origin)
	for i := len(path) - 2; i >= 0; i-- {
		u, v := path[i], path[i+1]
		found := false
		for _, ai := range o.base.Out(u) {
			a := o.base.Arcs[ai]
			if a.To == v && !disabled[ai] {
				x, found = o.img(a.Label, x), true
				break
			}
		}
		if !found {
			return fmt.Errorf("path %v crosses %d→%d, which is no enabled arc", path, u, v)
		}
	}
	if o.names[x] != weight {
		return fmt.Errorf("path %v folds to %s, answer says %s", path, o.names[x], weight)
	}
	return nil
}

// sameSet compares two next-hop lists as sets.
func sameSet(a, b []int32) bool {
	if len(a) == 1 && len(b) == 1 {
		return a[0] == b[0]
	}
	x := append([]int32(nil), a...)
	y := append([]int32(nil), b...)
	sort.Slice(x, func(i, j int) bool { return x[i] < x[j] })
	sort.Slice(y, func(i, j int) bool { return y[i] < y[j] })
	x, y = dedup(x), dedup(y)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

func dedup(s []int32) []int32 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
