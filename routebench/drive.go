package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"metarouting/internal/rib"
	"metarouting/internal/serve"
	"metarouting/internal/serve/wire"
	"metarouting/internal/value"
)

// Roles, in the order the traffic alternates them.
const (
	leader = iota
	follower
)

var roleNames = [2]string{"leader", "follower"}

// window collects one measured stretch of traffic.
type window struct {
	getNS, batchNS, ackNS, visNS []int64
	batchAnswers                 int
	timedNS                      int64
	ops                          int
	recordBytes                  []int64 // framed replication bytes per write
}

// runner drives one booted cluster through a workload's rounds and
// checks every answer against the oracle.
type runner struct {
	c  *cluster
	in *inputs
	o  *oracle
	cl *client

	disabled []bool // the failure state the driven events imply
	version  uint64 // the version both roles must serve

	paths     []string // per query: the /v1/route path
	frames    [][]byte // per batch slot: the binary request frame
	batchQs   [][]int  // per batch slot: the pool indices it carries
	qi, bi    int
	si        int
	roleTurn  int
	storms    int
	matchOK   map[int]rib.Prefix
	nameCache [2]map[int32]string

	attempted, failed int
	checkErrs         int
	errs              []string

	win *window
	// traced is the traced run's per-layer state (nil when untraced).
	traced *tracedState
}

func newRunner(c *cluster, in *inputs) *runner {
	r := &runner{
		c: c, in: in, cl: newClient(),
		o:        newOracle(c.alg.OT, c.g, c.origin),
		disabled: make([]bool, len(in.arcs)),
		version:  c.srv.Snapshot().Version,
		matchOK:  make(map[int]rib.Prefix),
	}
	r.nameCache[leader] = make(map[int32]string)
	r.nameCache[follower] = make(map[int32]string)
	r.paths = make([]string, len(in.queries))
	for i, q := range in.queries {
		r.paths[i] = routePath(q)
	}
	nb := len(in.queries) / in.w.batchSize
	for b := 0; b < nb; b++ {
		idx := make([]int, in.w.batchSize)
		qs := make([]wire.Query, in.w.batchSize)
		for j := range idx {
			idx[j] = b*in.w.batchSize + j
			qs[j] = wireQuery(in.queries[idx[j]])
		}
		frame, err := wire.AppendQueryRequest(nil, qs)
		if err != nil {
			panic(err) // batch sizes are fixed far below wire.MaxBatch
		}
		r.frames = append(r.frames, frame)
		r.batchQs = append(r.batchQs, idx)
	}
	return r
}

func routePath(q query) string {
	p := "/v1/route?from=" + strconv.Itoa(q.from)
	switch q.kind {
	case qDest:
		return p + "&dest=" + strconv.Itoa(q.dest)
	case qPrefix:
		return p + "&prefix=" + q.prefix.String()
	default:
		a := q.prefix.Addr
		return p + fmt.Sprintf("&addr=%d.%d.%d.%d", a>>24, a>>16&0xff, a>>8&0xff, a&0xff)
	}
}

func wireQuery(q query) wire.Query {
	wq := wire.Query{Kind: q.kind, From: int32(q.from)}
	switch q.kind {
	case qDest:
		wq.Arg = uint32(q.dest)
	case qPrefix:
		wq.Arg, wq.PLen = q.prefix.Addr, q.prefix.Len
	default:
		wq.Arg = q.prefix.Addr
	}
	return wq
}

func eventsBody(arcs []int, kind string) []byte {
	var b strings.Builder
	b.WriteString(`{"events":[`)
	for i, a := range arcs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"arc":%d,"kind":%q}`, a, kind)
	}
	b.WriteString("]}")
	return []byte(b.String())
}

func (r *runner) base(role int) string {
	if role == leader {
		return r.c.leaderURL
	}
	return r.c.followerURL
}

// fail reports a failed check on standard error (the first 20 of a run);
// callers count it as a failed operation or a failed checkpoint.
func (r *runner) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.errs) < 20 {
		r.errs = append(r.errs, msg)
		fmt.Fprintln(os.Stderr, "routebench: check failed:", msg)
	}
}

// name renders a weight index as role answers render it.
func (r *runner) name(role int, w int32) string {
	if s, ok := r.nameCache[role][w]; ok {
		return s
	}
	var s string
	if role == leader {
		s = value.Format(r.c.eng.Value(w))
	} else {
		s = r.c.fol.State().WeightName(w)
	}
	r.nameCache[role][w] = s
	return s
}

// measure runs whole cycles of the workload until the timed operations
// add up to d, then returns the window.
func (r *runner) measure(d time.Duration) *window {
	r.win = &window{}
	wallCap := time.Now().Add(3*d + 30*time.Second)
	for r.win.timedNS < int64(d) && time.Now().Before(wallCap) {
		r.cycle()
	}
	return r.win
}

// cycle is one whole round of the workload's mix: read rounds and one
// storm (lookup), or storm batches with reads after each (storm, churn).
func (r *runner) cycle() {
	w := r.in.w
	storm := r.in.storms[r.si%len(r.in.storms)]
	fail, up := eventsBody(storm, "fail"), eventsBody(storm, "up")
	r.si++
	if w.readRoundsPerStorm > 0 {
		for i := 0; i < w.readRoundsPerStorm; i++ {
			r.readRound()
		}
		r.settle()
		r.write(storm, true, fail)
		r.write(storm, false, up)
	} else {
		r.write(storm, true, fail)
		r.readRound()
		r.write(storm, false, up)
		r.readRound()
	}
	r.storms++
	if r.storms%w.checkEvery == 0 {
		r.checkpoint()
	}
}

// getResult is one loopback GET kept for checking after its round.
type getResult struct {
	role, qi int
	status   int
	start    time.Time
	ns       int64
	body     []byte
	err      error
}

// readRound sends the round's single GETs (alternating roles) and its
// binary batches, then checks every answer.
func (r *runner) readRound() {
	w := r.in.w
	res := make([]getResult, 0, w.getsPerRound)
	var ms0 runtime.MemStats
	if r.traced != nil {
		runtime.ReadMemStats(&ms0)
	}
	for i := 0; i < w.getsPerRound; i++ {
		role := i & 1
		qi := r.qi % len(r.in.queries)
		r.qi++
		start := time.Now()
		status, d, err := r.cl.get(r.base(role) + r.paths[qi])
		res = append(res, getResult{role: role, qi: qi, status: status, start: start, ns: int64(d), body: r.cl.body(), err: err})
	}
	if r.traced != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		r.traced.allocGetB += ms1.TotalAlloc - ms0.TotalAlloc
		r.traced.gcs += ms1.NumGC - ms0.NumGC
		r.traced.allocGets += len(res)
	}
	for _, g := range res {
		r.attempted++
		r.win.ops++
		r.win.timedNS += g.ns
		r.win.getNS = append(r.win.getNS, g.ns)
		if err := r.checkGet(g); err != nil {
			r.failed++
			r.fail("GET %s%s: %v", roleNames[g.role], r.paths[g.qi], err)
		}
		if r.traced != nil {
			r.traced.get(r, g)
		}
	}
	for i := 0; i < w.batchesPerRound; i++ {
		role := r.roleTurn & 1
		r.roleTurn++
		b := r.bi % len(r.frames)
		r.bi++
		var ms0 runtime.MemStats
		if r.traced != nil {
			runtime.ReadMemStats(&ms0)
		}
		status, d, err := r.cl.post(r.base(role)+"/v1/routes", wire.ContentType, r.frames[b])
		if r.traced != nil {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			r.traced.gcs += ms1.NumGC - ms0.NumGC
		}
		body := r.cl.body()
		r.attempted++
		r.win.ops++
		r.win.timedNS += int64(d)
		r.win.batchNS = append(r.win.batchNS, int64(d))
		r.win.batchAnswers += len(r.batchQs[b])
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err == nil {
			err = r.checkBatch(role, b, body)
		}
		if err != nil {
			r.failed++
			r.fail("batch %d on %s: %v", b, roleNames[role], err)
		}
		if r.traced != nil {
			r.traced.batch(r, role, b, body)
		}
	}
}

// checkGet verifies one single-GET answer: status and version, the
// longest-match resolution against the linear scan, the routing facts
// against the leader's column at this version, and the answered path
// against the fixpoint's fold.
func (r *runner) checkGet(g getResult) error {
	if g.err != nil {
		return g.err
	}
	if g.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", g.status, g.body)
	}
	var rep serve.RouteReply
	if err := json.Unmarshal(g.body, &rep); err != nil {
		return err
	}
	return r.checkReply(r.in.queries[g.qi], g.qi, &rep)
}

func (r *runner) checkReply(q query, qi int, rep *serve.RouteReply) error {
	if rep.Version != r.version {
		return fmt.Errorf("answered at version %d, want %d", rep.Version, r.version)
	}
	if rep.From != q.from {
		return fmt.Errorf("answered from %d, asked %d", rep.From, q.from)
	}
	if q.kind == qDest {
		if rep.Dest != q.dest {
			return fmt.Errorf("answered dest %d, asked %d", rep.Dest, q.dest)
		}
	} else if q.want < 0 {
		if rep.Matched != "" || rep.Dest != -1 || rep.Routed {
			return fmt.Errorf("matched %q (dest %d) where no announcement covers the query", rep.Matched, rep.Dest)
		}
		return nil
	} else {
		m, err := rib.ParsePrefix(rep.Matched)
		if err != nil {
			return fmt.Errorf("matched prefix %q: %v", rep.Matched, err)
		}
		if err := r.checkMatchCached(qi, q, m, rep.Dest); err != nil {
			return err
		}
	}
	col := r.c.srv.Snapshot().Column(rep.Dest)
	if col == nil {
		return fmt.Errorf("dest %d has no column on the leader", rep.Dest)
	}
	w, routed := col.Route(q.from)
	if rep.Routed != routed {
		return fmt.Errorf("routed=%v, leader column says %v", rep.Routed, routed)
	}
	if !routed {
		return nil
	}
	if want := r.name(leader, w); rep.Weight != want {
		return fmt.Errorf("weight %s, leader column holds %s", rep.Weight, want)
	}
	nh := col.NextHops(q.from)
	if len(nh) != len(rep.ECMP) {
		return fmt.Errorf("ECMP %v, leader column holds %v", rep.ECMP, nh)
	}
	for i := range nh {
		if int(nh[i]) != rep.ECMP[i] {
			return fmt.Errorf("ECMP %v, leader column holds %v", rep.ECMP, nh)
		}
	}
	if rep.Err != "" {
		return fmt.Errorf("routed answer carries error %q", rep.Err)
	}
	return r.o.checkPath(r.disabled, rep.Path, q.from, rep.Dest, rep.Weight)
}

// checkMatchCached runs checkMatch once per (query, answer): the prefix
// table never changes within a run, so a verified pair stays verified.
func (r *runner) checkMatchCached(qi int, q query, m rib.Prefix, node int) error {
	if verified, seen := r.matchOK[qi]; seen && verified == m && node == q.want {
		return nil
	}
	if err := checkMatch(r.in.anns, q, m, node, true); err != nil {
		return err
	}
	r.matchOK[qi] = m
	return nil
}

// checkBatch verifies one binary batch answer the same way, slot by
// slot, against the leader's columns at this version.
func (r *runner) checkBatch(role, b int, body []byte) error {
	ver, as, pool, err := wire.DecodeAnswerResponse(body, nil, nil)
	if err != nil {
		return err
	}
	if ver != r.version {
		return fmt.Errorf("answered at version %d, want %d", ver, r.version)
	}
	idx := r.batchQs[b]
	if len(as) != len(idx) {
		return fmt.Errorf("%d answers for %d queries", len(as), len(idx))
	}
	sn := r.c.srv.Snapshot()
	for i, a := range as {
		qi := idx[i]
		q := r.in.queries[qi]
		if q.want < 0 {
			if a.Matched() || a.Dest != -1 {
				return fmt.Errorf("slot %d matched dest %d where no announcement covers the query", i, a.Dest)
			}
			continue
		}
		if !a.Matched() {
			return fmt.Errorf("slot %d unmatched, linear scan finds anchor %d", i, q.want)
		}
		if q.kind == qDest {
			if int(a.Dest) != q.dest {
				return fmt.Errorf("slot %d answered dest %d, asked %d", i, a.Dest, q.dest)
			}
		} else if err := r.checkMatchCached(qi, q, rib.MakePrefix(q.prefix.Addr, a.MatchLen), int(a.Dest)); err != nil {
			return fmt.Errorf("slot %d: %v", i, err)
		}
		col := sn.Column(int(a.Dest))
		w, routed := col.Route(q.from)
		if a.Routed() != routed {
			return fmt.Errorf("slot %d routed=%v, leader column says %v", i, a.Routed(), routed)
		}
		if !routed {
			continue
		}
		if got, want := r.name(role, a.W), r.name(leader, w); got != want {
			return fmt.Errorf("slot %d weight %s, leader column holds %s", i, got, want)
		}
		nh := col.NextHops(q.from)
		if int(a.NhOff)+int(a.NhLen) > len(pool) || int(a.NhLen) != len(nh) {
			return fmt.Errorf("slot %d next hops span [%d,+%d) of %d, leader column holds %v", i, a.NhOff, a.NhLen, len(pool), nh)
		}
		for j := range nh {
			if pool[int(a.NhOff)+j] != nh[j] {
				return fmt.Errorf("slot %d next hops %v, leader column holds %v", i, pool[a.NhOff:int(a.NhOff)+int(a.NhLen)], nh)
			}
		}
	}
	return nil
}

// write applies one storm batch through POST /v1/events and waits until
// the follower serves the resulting version. The ack time ends at the
// leader's 200; the visible time at the follower's first 200 for that
// version.
func (r *runner) write(arcs []int, fail bool, body []byte) {
	r.attempted++
	r.win.ops++
	var pre *writeProbe
	if r.traced != nil {
		pre = r.traced.beforeWrite(r)
	}
	want := r.version + 1
	poll := fmt.Sprintf("%s/v1/route?from=%d&dest=%d&version=%d", r.c.followerURL,
		r.c.g.Arcs[arcs[0]].From, r.c.dests[len(arcs)%len(r.c.dests)], want)
	bytes0 := r.c.sink.bytes.Load()
	t0 := time.Now()
	status, ack, err := r.cl.post(r.c.leaderURL+"/v1/events", "application/json", body)
	reply := r.cl.body()
	var vis time.Duration
	if err == nil && status == http.StatusOK {
		for {
			// Ask over HTTP only once the follower's applied version
			// (an atomic read) has reached want: a client polling the
			// follower's listener back to back would take a CPU from
			// the apply it is waiting for.
			if r.c.fol.Version() < want && time.Since(t0) < 30*time.Second {
				time.Sleep(50 * time.Microsecond)
				continue
			}
			st, _, perr := r.cl.get(poll)
			if perr != nil {
				err = perr
				break
			}
			if st == http.StatusOK {
				vis = time.Since(t0)
				break
			}
			if st != http.StatusNotFound || time.Since(t0) > 30*time.Second {
				err = fmt.Errorf("follower answered %d for version %d: %s", st, want, r.cl.buf.Bytes())
				break
			}
		}
	} else if err == nil {
		err = fmt.Errorf("leader answered %d: %s", status, reply)
	}
	if pre != nil {
		r.traced.writeDone(pre)
	}
	r.win.timedNS += int64(vis)
	if err == nil {
		r.win.ackNS = append(r.win.ackNS, int64(ack))
		r.win.visNS = append(r.win.visNS, int64(vis))
		r.win.recordBytes = append(r.win.recordBytes, r.c.sink.bytes.Load()-bytes0)
	}
	for _, a := range arcs {
		r.disabled[a] = fail
	}
	r.version = want
	if err == nil {
		err = r.checkWrite(arcs, reply)
	}
	if err != nil {
		r.failed++
		r.fail("events batch (%d arcs, fail=%v) → v%d: %v", len(arcs), fail, want, err)
	}
	if r.traced != nil && pre != nil {
		r.traced.afterWrite(r, pre, arcs, fail, t0, ack, vis)
	}
	r.settle()
}

// settle collects the garbage the benchmark's own checks left behind,
// outside every timed window, so the program's operations pay only for
// collections their own allocations cause.
func (r *runner) settle() { runtime.GC() }

// checkWrite verifies a write's outcome: every event toggled, the
// leader and the follower both serve the new version, and the
// follower's routing checksum equals the leader's.
func (r *runner) checkWrite(arcs []int, reply []byte) error {
	var er serve.EventsReply
	if err := json.Unmarshal(reply, &er); err != nil {
		return fmt.Errorf("events reply: %v", err)
	}
	if er.Applied != len(arcs) || er.Version != r.version {
		return fmt.Errorf("events reply applied %d at v%d, want %d at v%d", er.Applied, er.Version, len(arcs), r.version)
	}
	if v := r.c.srv.Snapshot().Version; v != r.version {
		return fmt.Errorf("leader serves v%d, want v%d", v, r.version)
	}
	if v := r.c.fol.Version(); v != r.version {
		return fmt.Errorf("follower serves v%d, want v%d", v, r.version)
	}
	if lc, fc := r.checksums(); lc != fc {
		return fmt.Errorf("follower checksum %08x, leader %08x at v%d", fc, lc, r.version)
	}
	if n := r.c.applyErr.Load(); n != 0 {
		return fmt.Errorf("follower rejected %d records", n)
	}
	return nil
}

// checkpoint runs the full oracle on both roles and the batch-vs-single
// identity on both roles. Failures here mark the run incorrect.
func (r *runner) checkpoint() {
	for _, v := range []*stateView{r.leaderView(), r.followerView()} {
		if err := r.o.checkState(v, r.disabled, r.c.dests); err != nil {
			r.checkErrs++
			r.fail("fixpoint oracle: %v", err)
		}
	}
	for role := range roleNames {
		if err := r.batchVsSingle(role, r.bi%len(r.frames)); err != nil {
			r.checkErrs++
			r.fail("batch vs single on %s: %v", roleNames[role], err)
		}
	}
	if lc, fc := r.checksums(); lc != fc {
		r.checkErrs++
		r.fail("checkpoint v%d: follower checksum %08x, leader %08x", r.version, fc, lc)
	}
	r.settle()
}

// checksums reads the leader's and the follower's routing checksums,
// one per goroutine: at 100k nodes each digests megabytes.
func (r *runner) checksums() (leader, follower uint32) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		follower = r.c.fol.Checksum()
	}()
	leader = r.c.srv.Checksum()
	<-done
	return leader, follower
}

func (r *runner) leaderView() *stateView {
	sn := r.c.srv.Snapshot()
	cols := make(map[int]*rib.Column, len(r.c.dests))
	for _, d := range r.c.dests {
		if c := sn.Column(d); c != nil {
			cols[d] = c.Flatten()
		}
	}
	return &stateView{role: "leader", version: sn.Version, disabled: sn.Disabled, unconverged: sn.Unconverged,
		cols: cols, name: func(w int32) string { return r.name(leader, w) }}
}

func (r *runner) followerView() *stateView {
	st := r.c.fol.State()
	return &stateView{role: "follower", version: st.Version, disabled: st.Disabled, unconverged: st.Unconverged,
		cols: st.Cols, name: func(w int32) string { return r.name(follower, w) }}
}

// batchVsSingle sends batch b to role and each of its queries as a
// single GET, and requires the answers to agree on version, resolved
// destination, match length, routedness, weight and ECMP set.
func (r *runner) batchVsSingle(role, b int) error {
	status, _, err := r.cl.post(r.base(role)+"/v1/routes", wire.ContentType, r.frames[b])
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("batch status %d: %v", status, err)
	}
	ver, as, pool, err := wire.DecodeAnswerResponse(r.cl.body(), nil, nil)
	if err != nil {
		return err
	}
	for i, qi := range r.batchQs[b] {
		status, _, err := r.cl.get(r.base(role) + r.paths[qi])
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("GET status %d: %v", status, err)
		}
		var rep serve.RouteReply
		if err := json.Unmarshal(r.cl.buf.Bytes(), &rep); err != nil {
			return err
		}
		a := as[i]
		if rep.Version != ver || rep.Dest != int(a.Dest) || rep.Routed != a.Routed() {
			return fmt.Errorf("query %d: single (v%d dest %d routed %v) vs batch (v%d dest %d routed %v)",
				qi, rep.Version, rep.Dest, rep.Routed, ver, a.Dest, a.Routed())
		}
		if rep.Matched != "" {
			m, err := rib.ParsePrefix(rep.Matched)
			if err != nil || m.Len != a.MatchLen {
				return fmt.Errorf("query %d: single matched %q vs batch length %d", qi, rep.Matched, a.MatchLen)
			}
		}
		if !a.Routed() {
			continue
		}
		if got := r.name(role, a.W); got != rep.Weight {
			return fmt.Errorf("query %d: single weight %s vs batch %s", qi, rep.Weight, got)
		}
		nh := pool[a.NhOff : int(a.NhOff)+int(a.NhLen)]
		if len(nh) != len(rep.ECMP) {
			return fmt.Errorf("query %d: single ECMP %v vs batch %v", qi, rep.ECMP, nh)
		}
		for j := range nh {
			if int(nh[j]) != rep.ECMP[j] {
				return fmt.Errorf("query %d: single ECMP %v vs batch %v", qi, rep.ECMP, nh)
			}
		}
	}
	return nil
}
