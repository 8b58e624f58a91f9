package main

import (
	"strings"
	"testing"

	"metarouting/internal/rib"
)

// toy shrinks a workload to a topology the tests boot in milliseconds.
func toy(w workload) workload {
	w.nodes, w.prefixes, w.boots, w.checkEvery = 400, 200, 2, 2
	w.anchors = min(w.anchors, 8)
	return w
}

// bootToy boots a toy lookup cluster and a runner over it.
func bootToy(t *testing.T) *runner {
	t.Helper()
	in, err := genInputs(toy(workloads["lookup"]), 7)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := boot(in, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.close)
	r := newRunner(c, in)
	t.Cleanup(r.cl.close)
	return r
}

// copyView deep-copies a state view's columns so a test can corrupt
// them without touching the served snapshot.
func copyView(v *stateView) *stateView {
	cp := *v
	cp.cols = make(map[int]*rib.Column, len(v.cols))
	for d, c := range v.cols {
		cc := *c
		cc.Slots = append([]rib.EntrySlot(nil), c.Slots...)
		cc.Pool = append([]int32(nil), c.Pool...)
		cp.cols[d] = &cc
	}
	return &cp
}

// victim picks a routed node of column d that is not the destination.
func victim(t *testing.T, c *rib.Column) int {
	for u := range c.Slots {
		if u != c.Dest && c.Slots[u].Routed && c.Slots[u].NhLen > 0 {
			return u
		}
	}
	t.Fatalf("column %d routes no node", c.Dest)
	return -1
}

func TestOracleAcceptsServedState(t *testing.T) {
	r := bootToy(t)
	for _, v := range []*stateView{r.leaderView(), r.followerView()} {
		if err := r.o.checkState(v, r.disabled, r.c.dests); err != nil {
			t.Fatalf("%s: %v", v.role, err)
		}
	}
	for i, q := range r.in.queries {
		if q.want < 0 {
			continue
		}
		pt := r.c.srv.Snapshot().Prefixes()
		var po rib.PrefixOrigin
		var ok bool
		switch q.kind {
		case qPrefix:
			po, ok = pt.MatchPrefix(q.prefix)
		case qAddr:
			po, ok = pt.Match(q.prefix.Addr)
		default:
			continue
		}
		if err := checkMatch(r.in.anns, q, po.Prefix, po.Node, ok); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}

// The mutation self-test: each corruption of a copied snapshot must be
// flagged by the oracle check that owns it.
func TestOracleFlagsCorruptWeight(t *testing.T) {
	r := bootToy(t)
	v := copyView(r.leaderView())
	d := r.c.dests[0]
	c := v.cols[d]
	u := victim(t, c)
	c.Slots[u].W = c.Slots[d].W // the origin's weight: no real path folds to it
	err := r.o.checkState(v, r.disabled, r.c.dests)
	if err == nil || !strings.Contains(err.Error(), "folding to its weight") {
		t.Fatalf("corrupt weight at node %d not flagged: %v", u, err)
	}
}

func TestOracleFlagsCorruptNextHop(t *testing.T) {
	r := bootToy(t)
	v := copyView(r.leaderView())
	c := v.cols[r.c.dests[0]]
	u := victim(t, c)
	nh := c.Pool[c.Slots[u].NhOff]
	// Point the primary next hop at a neighbour outside the ECMP set
	// when there is one, else at any other node.
	alt := int32((int(nh) + 1) % len(c.Slots))
	for _, ai := range r.c.g.Out(u) {
		to := int32(r.c.g.Arcs[ai].To)
		in := false
		for _, h := range c.Pool[c.Slots[u].NhOff : c.Slots[u].NhOff+c.Slots[u].NhLen] {
			in = in || h == to
		}
		if !in {
			alt = to
			break
		}
	}
	c.Pool[c.Slots[u].NhOff] = alt
	if err := r.o.checkState(v, r.disabled, r.c.dests); err == nil {
		t.Fatalf("next hop of node %d moved from %d to %d, not flagged", u, nh, alt)
	}
}

func TestOracleFlagsCorruptMatch(t *testing.T) {
	r := bootToy(t)
	pt := r.c.srv.Snapshot().Prefixes()
	kept := append([]rib.PrefixOrigin(nil), pt.Kept()...)
	for _, q := range r.in.queries {
		if q.kind != qAddr || q.want < 0 {
			continue
		}
		node, _, ok := pt.MatchNode(q.prefix.Addr)
		if !ok {
			t.Fatalf("served table misses %v", q.prefix)
		}
		// Re-anchor the kept announcement that answers q at another
		// destination, in a copied table.
		for i := range kept {
			if kept[i].Prefix.Contains(q.prefix.Addr) && kept[i].Node == node {
				po, _ := pt.Match(q.prefix.Addr)
				if kept[i].Prefix != po.Prefix {
					continue
				}
				for _, d := range r.c.dests {
					if d != node {
						kept[i].Node = d
						break
					}
				}
				bad := rib.RestorePrefixTable(kept, pt.Suppressed())
				got, ok := bad.Match(q.prefix.Addr)
				if err := checkMatch(r.in.anns, q, got.Prefix, got.Node, ok); err == nil {
					t.Fatalf("re-anchored match for %v (anchor %d → %d) not flagged", q.prefix, node, got.Node)
				}
				return
			}
		}
	}
	t.Fatal("no address query resolved through a kept announcement")
}

func TestOracleFlagsCorruptPath(t *testing.T) {
	r := bootToy(t)
	d := r.c.dests[0]
	col := r.c.srv.Snapshot().Column(d).Flatten()
	u := victim(t, col)
	path, err := r.c.srv.Snapshot().Forward(u, d)
	if err != nil {
		t.Fatal(err)
	}
	w := r.name(leader, col.Slots[u].W)
	if err := r.o.checkPath(r.disabled, path, u, d, w); err != nil {
		t.Fatalf("served path rejected: %v", err)
	}
	if err := r.o.checkPath(r.disabled, path, u, d, r.name(leader, col.Slots[d].W)); err == nil {
		t.Fatal("path answered with the origin's weight not flagged")
	}
	if len(path) >= 2 {
		loop := append([]int{path[0], path[1]}, path...)
		if err := r.o.checkPath(r.disabled, loop, u, d, w); err == nil {
			t.Fatal("looping path not flagged")
		}
	}
}
