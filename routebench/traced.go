package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"metarouting/internal/replica"
	"metarouting/internal/rib"
	"metarouting/internal/serve"
	"metarouting/internal/serve/wire"
	"metarouting/internal/solve"
)

// tracedState is the traced run's per-layer bookkeeping. Calls the
// program makes inside one request are timed by shadow calls into the
// same public functions, made by the benchmark outside the request;
// program-side counts come from /v1/stats and /v1/metrics scraped
// around each write.
type tracedState struct {
	tr *tracer
	ws *solve.Workspace
	// licensed mirrors the leader's delta gate (/v1/stats delta_enabled).
	licensed bool

	op int64

	allocGetB uint64
	allocGets int
	// gcs counts collections completed while a timed operation ran.
	gcs          uint32
	allocBatchKB []float64
	lpmNS        []float64
	frontier     []float64
	relax        []float64
	recomputed   []float64
	pagesCloned  []float64
	applyBatchMS []float64
	fullBytes    []float64

	qs    []wire.Query
	as    []wire.Answer
	pool  []int32
	frame []byte
}

func newTracedState(tr *tracer, licensed bool) *tracedState {
	return &tracedState{tr: tr, ws: solve.NewWorkspace(), licensed: licensed}
}

// timeSpan records a root span around f.
func (t *tracedState) timeSpan(name string, f func()) {
	s := t.tr.now()
	f()
	t.tr.record(name, t.op, -1, s, t.tr.now())
}

// setup times the boot-time layers once on the booted cluster: scratch
// solve and paged build per destination (each compared with the served
// column), and the full record's encode and apply.
func (t *tracedState) setup(r *runner) {
	c := r.c
	sn := c.srv.Snapshot()
	view := c.g.MaskArcs(make([]bool, len(c.g.Arcs)))
	for _, d := range c.dests {
		t.timeSpan("solve.scratch", func() { t.ws.BellmanFordRaw(c.eng, view, d, c.origin, 0) })
		var col *rib.PagedColumn
		var err error
		t.timeSpan("rib.build_paged", func() { col, err = rib.BuildDestPaged(c.eng, view, d, c.origin, t.ws) })
		if err != nil || !sameColumn(col.Flatten(), sn.Column(d).Flatten()) {
			t.mismatch(r, "boot: shadow BuildDestPaged for destination %d differs from the served column (%v)", d, err)
		}
	}
	for i := 0; i < 3; i++ {
		var frame []byte
		var err error
		t.timeSpan("replica.encode_full", func() { _, frame, err = c.srv.EncodeFull() })
		if err != nil {
			t.mismatch(r, "EncodeFull: %v", err)
			return
		}
		t.fullBytes = append(t.fullBytes, float64(len(frame)))
		rec, err := replica.DecodeRecord(frame)
		if err != nil || rec.Kind != replica.KindFull {
			t.mismatch(r, "full record does not decode: %v", err)
			return
		}
		var st *replica.State
		t.timeSpan("replica.apply_full", func() { st, err = replica.ApplyFull(rec.Full) })
		if err != nil || st.Checksum() != c.srv.Checksum() {
			t.mismatch(r, "ApplyFull of the leader's full record does not reproduce its checksum (%v)", err)
		}
	}
}

// mismatch records a shadow result that differs from what the program
// served: a differential failure, which makes the run incorrect.
func (t *tracedState) mismatch(r *runner, format string, args ...any) {
	r.checkErrs++
	r.fail(format, args...)
}

func sameColumn(a, b *rib.Column) bool {
	if a.Dest != b.Dest || a.Converged != b.Converged || len(a.Slots) != len(b.Slots) || len(a.Pool) != len(b.Pool) {
		return false
	}
	for i := range a.Slots {
		if a.Slots[i] != b.Slots[i] {
			return false
		}
	}
	for i := range a.Pool {
		if a.Pool[i] != b.Pool[i] {
			return false
		}
	}
	return true
}

// get shadows one single GET: the same request through the role's
// handler in-process (its answer must equal the loopback one byte for
// byte), and the leader column's Forward for the answered route.
func (t *tracedState) get(r *runner, g getResult) {
	t.op++
	start := int64(g.start.Sub(t.tr.t0))
	t.tr.record("client.get", t.op, -1, start, start+g.ns)
	h := r.c.leaderH
	if g.role == follower {
		h = r.c.followerH
	}
	req := httptest.NewRequest(http.MethodGet, r.paths[g.qi], nil)
	var rec *httptest.ResponseRecorder
	t.timeSpan("serve.route_handler."+roleNames[g.role], func() { rec = serveInProcess(h, req) })
	if !bytes.Equal(rec.Body.Bytes(), g.body) {
		t.mismatch(r, "GET %s: in-process handler answer differs from the loopback answer", r.paths[g.qi])
	}
	q := r.in.queries[g.qi]
	if q.want < 0 {
		return
	}
	if col := r.c.srv.Snapshot().Column(q.want); col != nil {
		if _, routed := col.Route(q.from); routed {
			t.timeSpan("rib.forward", func() { col.Forward(q.from) }) //nolint:errcheck // timing only; answers are checked on the wire
		}
	}
}

// serveInProcess runs one request through a role's handler without the
// network.
func serveInProcess(h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// batch shadows one binary batch: request encode and decode, the
// role's handler in-process (answer must equal the loopback one), the
// answer's decode and re-encode (must round-trip), and the leader's
// longest-prefix matches for the batch's prefix and address queries.
func (t *tracedState) batch(r *runner, role, b int, body []byte) {
	t.op++
	frame := r.frames[b]
	var err error
	t.timeSpan("wire.decode_query", func() { t.qs, err = wire.DecodeQueryRequest(frame, t.qs[:0]) })
	if err != nil {
		t.mismatch(r, "batch %d: request frame does not decode: %v", b, err)
		return
	}
	t.timeSpan("wire.encode_query", func() { t.frame, err = wire.AppendQueryRequest(t.frame[:0], t.qs) })
	if err != nil || !bytes.Equal(t.frame, frame) {
		t.mismatch(r, "batch %d: request frame does not re-encode identically (%v)", b, err)
	}
	h := r.c.leaderH
	if role == follower {
		h = r.c.followerH
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/routes", bytes.NewReader(frame))
	req.Header.Set("Content-Type", wire.ContentType)
	var rec *httptest.ResponseRecorder
	t.timeSpan("serve.routes_handler."+roleNames[role], func() { rec = serveInProcess(h, req) })
	if !bytes.Equal(rec.Body.Bytes(), body) {
		t.mismatch(r, "batch %d on %s: in-process handler answer differs from the loopback answer", b, roleNames[role])
	}
	var ver uint64
	t.timeSpan("wire.decode_answer", func() { ver, t.as, t.pool, err = wire.DecodeAnswerResponse(body, t.as[:0], t.pool[:0]) })
	if err != nil {
		t.mismatch(r, "batch %d: answer frame does not decode: %v", b, err)
		return
	}
	t.timeSpan("wire.encode_answer", func() { t.frame, err = wire.AppendAnswerResponse(t.frame[:0], ver, t.as, t.pool) })
	if err != nil || !bytes.Equal(t.frame, body) {
		t.mismatch(r, "batch %d: answer frame does not re-encode identically (%v)", b, err)
	}
	pt := r.c.srv.Snapshot().Prefixes()
	n := 0
	s := t.tr.now()
	for _, qi := range r.batchQs[b] {
		q := &r.in.queries[qi]
		switch q.kind {
		case qPrefix:
			pt.MatchPrefix(q.prefix)
			n++
		case qAddr:
			pt.Match(q.prefix.Addr)
			n++
		}
	}
	e := t.tr.now()
	if n > 0 {
		t.tr.record("rib.lpm_match_batch", t.op, -1, s, e)
		t.lpmNS = append(t.lpmNS, float64(e-s)/float64(n))
	}
}

// writeProbe is what beforeWrite pins for afterWrite.
type writeProbe struct {
	prev     *serve.Snapshot
	prevFol  *replica.State
	stats    serve.Stats
	relax    float64
	mem      runtime.MemStats
	root     int32
	scrapeOK bool
}

func (t *tracedState) beforeWrite(r *runner) *writeProbe {
	t.op++
	p := &writeProbe{prev: r.c.srv.Snapshot(), prevFol: r.c.fol.State()}
	var err error
	if p.stats, err = scrapeStats(r); err == nil {
		_, p.relax, err = scrapeMetrics(r)
	}
	p.scrapeOK = err == nil
	if err != nil {
		t.mismatch(r, "scraping the leader before a write: %v", err)
	}
	p.root = t.tr.open("op.write", t.op, -1)
	r.c.writeOp.Store(t.op)
	r.c.writeSpan.Store(p.root)
	runtime.ReadMemStats(&p.mem)
	return p
}

// writeDone reads the allocation counter the moment the write is
// visible, before any check allocates.
func (t *tracedState) writeDone(p *writeProbe) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	t.allocBatchKB = append(t.allocBatchKB, float64(mem.TotalAlloc-p.mem.TotalAlloc)/1e3)
	t.gcs += mem.NumGC - p.mem.NumGC
}

// afterWrite closes the write's spans, reads the program's counters for
// the batch and replays the batch's solve and column rebuild in the
// shadow: graph view, scratch or delta solve and paged rebuild for
// every recomputed destination, each compared with the served column.
func (t *tracedState) afterWrite(r *runner, p *writeProbe, arcs []int, fail bool, t0 time.Time, ack, vis time.Duration) {
	r.c.writeSpan.Store(-1)
	start := int64(t0.Sub(t.tr.t0))
	t.tr.record("client.events_ack", t.op, p.root, start, start+int64(ack))
	if vis > 0 {
		t.tr.record("client.await_visible", t.op, p.root, start+int64(ack), start+int64(vis))
	}
	t.tr.set(p.root, start, start+int64(max(vis, ack)))

	if st, err := scrapeStats(r); err == nil && p.scrapeOK {
		t.recomputed = append(t.recomputed, float64(st.DestRecomputes-p.stats.DestRecomputes))
		t.pagesCloned = append(t.pagesCloned, float64(st.PagesCloned-p.stats.PagesCloned))
	}
	if last, relax, err := scrapeMetrics(r); err == nil && p.scrapeOK {
		t.relax = append(t.relax, relax-p.relax)
		t.applyBatchMS = append(t.applyBatchMS, last*1e3)
	}

	c := r.c
	cur := c.srv.Snapshot()
	toggles := make([]solve.ArcToggle, len(arcs))
	for i, a := range arcs {
		toggles[i] = solve.ArcToggle{Arc: a, Down: fail}
	}
	var view = cur.Graph
	t.timeSpan("graph.view", func() {
		if len(arcs) <= 32 {
			view = p.prev.Graph.WithArcsToggled(arcs, cur.Disabled)
		} else {
			view = c.g.MaskArcs(cur.Disabled)
		}
	})
	for _, d := range c.dests {
		served, before := cur.Column(d), p.prev.Column(d)
		if served == before {
			continue
		}
		pprev, _ := before.(*rib.PagedColumn)
		warm := func(u int) (bool, int32, int) {
			pg := pprev.Pages[u>>rib.PageShift]
			s := pg.Slots[u&rib.PageMask]
			if !s.Routed {
				return false, 0, -1
			}
			if u == d {
				return true, s.W, -1
			}
			return true, s.W, int(pg.Pool[s.NhOff])
		}
		// On an unlicensed algebra the delta calls are a what-if: their
		// cost is recorded, their result is not what the service serves.
		if pprev != nil && pprev.Converged {
			var ds solve.DeltaStats
			t.timeSpan("solve.delta", func() {
				_, ds = t.ws.BellmanFordDeltaRaw(c.eng, view, cur.Disabled, d, c.origin, warm, pprev.Clean, toggles, 0)
			})
			t.frontier = append(t.frontier, float64(ds.Frontier))
		}
		var col *rib.PagedColumn
		var err error
		if t.licensed && pprev != nil {
			t.timeSpan("rib.delta_paged", func() {
				col, _, _, err = rib.DeltaDestPaged(c.eng, view, cur.Disabled, d, c.origin, t.ws, pprev, toggles)
			})
		} else {
			if pprev != nil && pprev.Converged {
				t.timeSpan("rib.delta_paged", func() {
					rib.DeltaDestPaged(c.eng, view, cur.Disabled, d, c.origin, t.ws, pprev, toggles) //nolint:errcheck // what-if timing
				})
			}
			t.timeSpan("solve.scratch", func() { t.ws.BellmanFordRaw(c.eng, view, d, c.origin, 0) })
			t.timeSpan("rib.build_paged", func() { col, err = rib.BuildDestPaged(c.eng, view, d, c.origin, t.ws) })
		}
		if err != nil || col == nil || !sameColumn(col.Flatten(), served.Flatten()) {
			t.mismatch(r, "v%d: shadow replay for destination %d differs from the served column (%v)", cur.Version, d, err)
		}
	}
	pt := cur.Prefixes()
	t.timeSpan("rib.restore_prefix_table", func() { rib.RestorePrefixTable(pt.Kept(), pt.Suppressed()) })

	// The write's record through the layers the publisher and the
	// subscriber ran it through, replayed here so the shadows cost the
	// write nothing: Log.Append into a second log, DecodeRecord, and
	// ApplyDelta on the follower's state before the write.
	frame := c.sink.takeLast()
	if frame == nil {
		t.mismatch(r, "v%d: the leader published no record", cur.Version)
		return
	}
	var err error
	t.timeSpan("replica.log_append", func() { err = c.sink.shadowLog.Append(frame) })
	if err != nil {
		t.mismatch(r, "v%d: shadow Log.Append: %v", cur.Version, err)
	}
	var rec *replica.Record
	t.timeSpan("replica.decode", func() { rec, err = replica.DecodeRecord(frame) })
	if err != nil || rec.Kind != replica.KindDelta {
		t.mismatch(r, "v%d: the published record does not decode to a delta (%v)", cur.Version, err)
		return
	}
	var st *replica.State
	t.timeSpan("replica.apply_delta", func() { st, err = replica.ApplyDelta(p.prevFol, rec.Delta) })
	served := c.fol.State()
	if err != nil || st == nil || st.Version != served.Version {
		t.mismatch(r, "v%d: shadow ApplyDelta does not reach the follower's version (%v)", cur.Version, err)
		return
	}
	for d, col := range st.Cols {
		if !sameColumn(col, served.Cols[d]) {
			t.mismatch(r, "v%d: shadow ApplyDelta column %d differs from the follower's", cur.Version, d)
		}
	}
}

// scrapeStats reads the leader's /v1/stats.
func scrapeStats(r *runner) (serve.Stats, error) {
	var st serve.Stats
	status, _, err := r.cl.get(r.c.leaderURL + "/v1/stats")
	if err != nil || status != http.StatusOK {
		return st, fmt.Errorf("stats: status %d: %v", status, err)
	}
	return st, json.Unmarshal(r.cl.buf.Bytes(), &st)
}

// scrapeMetrics reads two series from the leader's /v1/metrics: the
// last event's reconvergence time in seconds and the solver's total
// relaxation count.
func scrapeMetrics(r *runner) (lastEvent, relaxations float64, err error) {
	status, _, err := r.cl.get(r.c.leaderURL + "/v1/metrics")
	if err != nil || status != http.StatusOK {
		return 0, 0, fmt.Errorf("metrics: status %d: %v", status, err)
	}
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(r.cl.buf.Bytes()))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "mrserve_convergence_last_event_seconds":
			lastEvent, err = strconv.ParseFloat(val, 64)
			found++
		case "mrserve_solve_relaxations_total":
			relaxations, err = strconv.ParseFloat(val, 64)
			found++
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("metrics: found %d of the 2 series", found)
	}
	return lastEvent, relaxations, nil
}

// perLayer summarises the traced window into the per-layer metrics.
// Times are medians of span self times; counts are medians per batch or
// per destination; runtime figures are totals over the window.
func (t *tracedState) perLayer(r *runner, boots []bootSteps, untraced, traced *window) map[string]metric {
	self := t.tr.selfTimes()
	med := func(name string, scale float64) float64 { return median(self[name]) / scale }
	var infer, compile, load []float64
	for _, b := range boots {
		infer = append(infer, float64(b.infer))
		compile = append(compile, float64(b.compile))
		load = append(load, float64(b.load))
	}
	const us, ms = 1e3, 1e6
	handler := append(append([]float64(nil), self["serve.route_handler.leader"]...), self["serve.route_handler.follower"]...)
	m := map[string]metric{
		"core.infer_ms":                    {median(infer) / ms, "ms"},
		"exec.compile_ms":                  {median(compile) / ms, "ms"},
		"graph.load_ms":                    {median(load) / ms, "ms"},
		"graph.view_us":                    {med("graph.view", us), "us"},
		"solve.scratch_ms_per_dest":        {med("solve.scratch", ms), "ms"},
		"solve.delta_us_per_dest":          {med("solve.delta", us), "us"},
		"solve.frontier_nodes_per_dest":    {median(t.frontier), "count"},
		"solve.relaxations_per_batch":      {median(t.relax), "count"},
		"serve.recomputed_dests_per_batch": {median(t.recomputed), "count"},
		"rib.build_paged_ms_per_dest":      {med("rib.build_paged", ms), "ms"},
		"rib.delta_paged_us_per_dest":      {med("rib.delta_paged", us), "us"},
		"rib.pages_cloned_per_batch":       {median(t.pagesCloned), "count"},
		"rib.arena_mb":                     {float64(r.c.srv.Snapshot().ArenaBytes()) / 1e6, "MB"},
		"rib.lpm_match_ns":                 {median(t.lpmNS), "ns"},
		"rib.forward_us":                   {med("rib.forward", us), "us"},
		"rib.restore_prefix_table_ms":      {med("rib.restore_prefix_table", ms), "ms"},
		"serve.apply_batch_ms":             {median(t.applyBatchMS), "ms"},
		"serve.publish_us":                 {med("serve.publish", us), "us"},
		"serve.route_handler_us.leader":    {med("serve.route_handler.leader", us), "us"},
		"serve.route_handler_us.follower":  {med("serve.route_handler.follower", us), "us"},
		"serve.routes_handler_us.leader":   {med("serve.routes_handler.leader", us), "us"},
		"serve.routes_handler_us.follower": {med("serve.routes_handler.follower", us), "us"},
		"serve.follower_apply_ms":          {med("serve.follower_apply", ms), "ms"},
		"wire.encode_query_us":             {med("wire.encode_query", us), "us"},
		"wire.decode_query_us":             {med("wire.decode_query", us), "us"},
		"wire.encode_answer_us":            {med("wire.encode_answer", us), "us"},
		"wire.decode_answer_us":            {med("wire.decode_answer", us), "us"},
		"replica.encode_full_ms":           {med("replica.encode_full", ms), "ms"},
		"replica.full_record_mb":           {median(t.fullBytes) / 1e6, "MB"},
		"replica.apply_full_ms":            {med("replica.apply_full", ms), "ms"},
		"replica.log_append_us":            {med("replica.log_append", us), "us"},
		"replica.transit_us":               {med("replica.transit", us), "us"},
		"replica.decode_us":                {med("replica.decode", us), "us"},
		"replica.apply_delta_ms":           {med("replica.apply_delta", ms), "ms"},
		"net.get_overhead_us":              {(med("client.get", 1) - median(handler)) / us, "us"},
		"runtime.alloc_kb_per_batch":       {median(t.allocBatchKB), "KB"},
		"runtime.alloc_b_per_get":          {float64(t.allocGetB) / float64(max(t.allocGets, 1)), "B"},
		"runtime.gc_per_1k_ops":            {1e3 * float64(t.gcs) / float64(max(traced.ops, 1)), "count"},
		"trace.overhead_ops_pct":           {100 * (opsPerSec(untraced)/opsPerSec(traced) - 1), "%"},
		"trace.overhead_get_p50_pct":       {100 * (pctl(traced.getNS, 0.5)/pctl(untraced.getNS, 0.5) - 1), "%"},
	}
	return m
}

// median returns the middle of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
