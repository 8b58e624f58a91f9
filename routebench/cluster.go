package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/replica"
	"metarouting/internal/rib"
	"metarouting/internal/serve"
	"metarouting/internal/telemetry"
	"metarouting/internal/value"
)

// cluster is one leader and one follower wired the way cmd/mrserve
// wires them, inside the benchmark process: the leader publishes into
// an on-disk log and a TCP publisher, the follower subscribes over
// loopback, and each role answers HTTP on its own loopback listener.
type cluster struct {
	alg    *core.Algebra
	eng    exec.Algebra
	origin value.V
	g      *graph.Graph
	dests  []int

	srv    *serve.Server
	reg    *telemetry.Registry
	log    *replica.Log
	logDir string
	pub    *replica.Publisher
	pubLn  net.Listener
	sink   *sinkHook

	fol      *serve.Follower
	subStop  context.CancelFunc
	subDone  chan struct{}
	applyErr atomic.Int64

	leaderH, followerH     http.Handler
	leaderSrv, followerSrv *http.Server
	leaderURL, followerURL string
	serveWG                sync.WaitGroup

	// tr is the traced window's tracer (nil outside it); the publish and
	// apply hooks run on the leader's and the subscriber's goroutines.
	tr atomic.Pointer[tracer]
	// writeSpan is the open write operation's root span, so records the
	// leader publishes and the follower applies nest under it.
	writeSpan atomic.Int32
	writeOp   atomic.Int64
}

// bootSteps are the per-step durations of one boot, for the traced
// run's set-up layers.
type bootSteps struct {
	infer, compile, load time.Duration
}

// boot brings up a leader and a follower from the run's inputs and
// returns once both answer HTTP. logDir must exist and be empty.
func boot(in *inputs, logDir string) (*cluster, bootSteps, error) {
	var steps bootSteps
	c := &cluster{logDir: logDir}
	c.writeSpan.Store(-1)
	t0 := time.Now()
	alg, err := core.InferString(in.w.expr)
	if err != nil {
		return nil, steps, err
	}
	t1 := time.Now()
	origin := alg.OT.DefaultOrigin()
	eng := exec.For(alg.OT, origin)
	t2 := time.Now()
	g, err := graph.New(in.nodes, in.arcs)
	if err != nil {
		return nil, steps, err
	}
	steps = bootSteps{infer: t1.Sub(t0), compile: t2.Sub(t1), load: time.Since(t2)}
	c.alg, c.eng, c.origin, c.g = alg, eng, origin, g

	anns := make([]rib.PrefixOrigin, len(in.anns))
	for i, a := range in.anns {
		anns[i] = rib.PrefixOrigin{Prefix: a.Prefix, Node: a.Node, Origin: origin}
	}
	if c.log, err = replica.OpenLog(logDir); err != nil {
		return nil, steps, err
	}
	// The publisher's full-snapshot source is the server, which needs
	// the publisher as its sink: close the loop late, as mrserve does;
	// no subscriber is accepted before the server exists.
	c.pub = replica.NewPublisher(func() (uint64, []byte, error) { return c.srv.EncodeFull() }, c.log)
	c.sink = &sinkHook{c: c}
	c.reg = telemetry.NewRegistry()
	c.srv, err = serve.NewServer(serve.Config{Engine: eng, Graph: g},
		serve.WithAnnouncements(anns),
		serve.WithDeltaProps(alg.Props),
		serve.WithRegistry(c.reg),
		serve.WithReplication(c.sink))
	if err != nil {
		c.close()
		return nil, steps, err
	}
	c.dests = c.srv.Dests()
	if c.pubLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		c.close()
		return nil, steps, err
	}
	c.serveWG.Add(1)
	go func() {
		defer c.serveWG.Done()
		c.pub.Serve(c.pubLn) //nolint:errcheck // returns when Close stops the listener
	}()
	c.leaderH = serve.NewHandler(c.srv, c.reg)
	if c.leaderSrv, c.leaderURL, err = c.listen(c.leaderH); err != nil {
		c.close()
		return nil, steps, err
	}

	c.fol = serve.NewFollower(telemetry.NewRegistry())
	ctx, cancel := context.WithCancel(context.Background())
	c.subStop, c.subDone = cancel, make(chan struct{})
	go func() {
		defer close(c.subDone)
		replica.Subscribe(ctx, c.pubLn.Addr().String(), c.fol.Version, c.apply) //nolint:errcheck // ends with ctx
	}()
	c.followerH = serve.NewFollowerHandler(c.fol, telemetry.NewRegistry())
	if c.followerSrv, c.followerURL, err = c.listen(c.followerH); err != nil {
		c.close()
		return nil, steps, err
	}
	// Ready once the follower serves the leader's version and both
	// listeners answer a route query.
	probe := fmt.Sprintf("/v1/route?from=0&dest=%d&version=%d", c.dests[0], c.srv.Snapshot().Version)
	hc := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for _, base := range []string{c.leaderURL, c.followerURL} {
		for {
			resp, err := hc.Get(base + probe)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				c.close()
				return nil, steps, fmt.Errorf("boot: %s not ready after 60s", base)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	hc.CloseIdleConnections()
	return c, steps, nil
}

// listen serves h on a fresh loopback listener.
func (c *cluster) listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	s := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	c.serveWG.Add(1)
	go func() {
		defer c.serveWG.Done()
		if err := s.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "routebench: http:", err)
		}
	}()
	return s, "http://" + ln.Addr().String(), nil
}

// apply is the follower's subscription callback: Follower.Apply, timed
// in the traced run together with the record's transit from the
// leader's PublishRecord.
func (c *cluster) apply(rec *replica.Record) error {
	tr := c.tr.Load()
	if tr == nil {
		err := c.fol.Apply(rec)
		if err != nil {
			c.applyErr.Add(1)
		}
		return err
	}
	start := tr.now()
	op, parent := c.writeOp.Load(), c.writeSpan.Load()
	if sent, ok := c.sink.sentAt(rec.Version()); ok {
		tr.record("replica.transit", op, parent, sent, start)
	}
	err := c.fol.Apply(rec)
	tr.record("serve.follower_apply", op, parent, start, tr.now())
	if err != nil {
		c.applyErr.Add(1)
	}
	return err
}

// close stops everything boot started and waits for it to end.
func (c *cluster) close() {
	if c.subStop != nil {
		c.subStop()
		<-c.subDone
	}
	for _, s := range []*http.Server{c.leaderSrv, c.followerSrv} {
		if s != nil {
			s.Close()
		}
	}
	if c.pub != nil {
		c.pub.Close()
	}
	if c.pubLn != nil {
		c.pubLn.Close()
	}
	c.serveWG.Wait()
	if c.srv != nil {
		c.srv.Close()
	}
	if c.log != nil {
		c.log.Close()
	}
	if c.sink != nil && c.sink.shadowLog != nil {
		c.sink.shadowLog.Close()
	}
	os.RemoveAll(c.logDir)
}

// openShadowLog opens the traced run's second record log, inside the
// leader's log directory, which the shadow Log.Append calls write to.
func openShadowLog(logDir string) (*replica.Log, error) {
	dir := filepath.Join(logDir, "shadow")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return replica.OpenLog(dir)
}

// sinkHook sits between the leader and its publisher. It counts the
// replication bytes every follower receives and, in the traced run,
// times PublishRecord and keeps the last frame for the write's shadow
// replay.
type sinkHook struct {
	c     *cluster
	bytes atomic.Int64

	mu        sync.Mutex
	sent      map[uint64]int64
	last      []byte
	shadowLog *replica.Log
}

func (h *sinkHook) PublishRecord(version uint64, frame []byte) error {
	tr := h.c.tr.Load()
	if tr == nil {
		err := h.c.pub.PublishRecord(version, frame)
		h.bytes.Add(int64(len(frame)))
		return err
	}
	op, parent := h.c.writeOp.Load(), h.c.writeSpan.Load()
	start := tr.now()
	h.mu.Lock()
	if h.sent == nil {
		h.sent = make(map[uint64]int64)
	}
	h.sent[version] = start
	h.mu.Unlock()
	err := h.c.pub.PublishRecord(version, frame)
	tr.record("serve.publish", op, parent, start, tr.now())
	h.bytes.Add(int64(len(frame)))
	h.mu.Lock()
	h.last = frame
	h.mu.Unlock()
	return err
}

// takeLast returns the last published frame (published frames are
// never written again) and forgets it.
func (h *sinkHook) takeLast() []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	f := h.last
	h.last = nil
	return f
}

// sentAt returns when PublishRecord received version's record.
func (h *sinkHook) sentAt(version uint64) (int64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t, ok := h.sent[version]
	delete(h.sent, version)
	return t, ok
}
