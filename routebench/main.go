// Command routebench is the route service's benchmark: it boots a
// leader and one follower inside its own process on loopback
// listeners, drives them with one closed-loop client through a named
// workload, checks every answer against an independent oracle and
// prints one JSON result line. With --trace 1 it reports per-layer
// metrics from a traced window instead of the end-to-end ones.
//
//	go run . --workload storm --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and what each layer
// metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	w       workload
	seed    int64
	seconds time.Duration
	trace   bool
	workdir string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: lookup, storm or churn")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 10, "seconds of timed traffic per run")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced window instead of end-to-end metrics")
		workdir = flag.String("workdir", ".bench_build/routebench", "directory for replication logs and span files")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "routebench: want --workload lookup|storm|churn, --seconds ≥ 1 and --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(config{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, workdir: *workdir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "routebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "routebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run generates the inputs, boots the cluster cfg.w.boots times (timing
// each boot), then drives the last one.
func run(cfg config) (*result, error) {
	in, err := genInputs(cfg.w, cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	var setups []float64
	var steps []bootSteps
	var c *cluster
	for i := 0; i < cfg.w.boots; i++ {
		dir, err := os.MkdirTemp(cfg.workdir, "log-")
		if err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		cc, st, err := boot(in, dir)
		d := time.Since(t0)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		setups = append(setups, d.Seconds())
		steps = append(steps, st)
		if i < cfg.w.boots-1 {
			cc.close()
		} else {
			c = cc
		}
	}
	defer c.close()

	r := newRunner(c, in)
	defer r.cl.close()
	r.checkpoint()
	res := &result{Metrics: map[string]metric{}}
	if !cfg.trace {
		win := r.measure(cfg.seconds)
		r.checkpoint()
		res.Metrics = endToEnd(win, setups)
		// The GET p99 does not repeat from run to run (README.md), so it
		// is printed for the record, not reported as a metric.
		fmt.Fprintf(os.Stderr, "routebench: route_get_p99_us %.1f over %d GETs\n", pctl(win.getNS, 0.99)/1e3, len(win.getNS))
	} else {
		licensed := c.srv.Stats().DeltaEnabled
		untraced := r.measure(cfg.seconds / 2)
		tr := newTracer()
		ts := newTracedState(tr, licensed)
		r.traced = ts
		c.tr.Store(tr)
		if c.sink.shadowLog, err = openShadowLog(c.logDir); err != nil {
			return nil, err
		}
		ts.setup(r)
		traced := r.measure(cfg.seconds - cfg.seconds/2)
		c.tr.Store(nil)
		r.traced = nil
		r.checkpoint()
		res.Metrics = ts.perLayer(r, steps, untraced, traced)
		path := filepath.Join(cfg.workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.w.name, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "routebench: %d spans written to %s\n", len(tr.spans), path)
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.checkErrs == 0
	if !cfg.trace {
		// Live heap of the two roles alone: drop the client's and the
		// oracle's state, then collect twice so finalizers run.
		r.cl.close()
		in.queries, in.storms, in.anns = nil, nil, nil
		*r = runner{cl: r.cl}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.Metrics["mem_live_mb"] = metric{float64(ms.HeapAlloc) / 1e6, "MB"}
	}
	return res, nil
}

// endToEnd turns an untraced window into the user-facing metrics.
func endToEnd(w *window, setups []float64) map[string]metric {
	return map[string]metric{
		"setup_s":                {median(setups), "s"},
		"ops_per_s":              {opsPerSec(w), "1/s"},
		"route_get_rps":          {float64(len(w.getNS)) / (sum(w.getNS) / 1e9), "1/s"},
		"route_get_p50_us":       {pctl(w.getNS, 0.50) / 1e3, "us"},
		"route_get_p90_us":       {pctl(w.getNS, 0.90) / 1e3, "us"},
		"routes_batch_qps":       {float64(w.batchAnswers) / (sum(w.batchNS) / 1e9), "1/s"},
		"routes_batch_p50_us":    {pctl(w.batchNS, 0.50) / 1e3, "us"},
		"event_ack_p50_ms":       {pctl(w.ackNS, 0.50) / 1e6, "ms"},
		"event_ack_p90_ms":       {pctl(w.ackNS, 0.90) / 1e6, "ms"},
		"event_visible_p50_ms":   {pctl(w.visNS, 0.50) / 1e6, "ms"},
		"event_visible_p90_ms":   {pctl(w.visNS, 0.90) / 1e6, "ms"},
		"record_bytes_per_batch": {geomean(w.recordBytes), "B"},
	}
}

func opsPerSec(w *window) float64 { return float64(w.ops) / (float64(w.timedNS) / 1e9) }

// geomean is the geometric mean of positive samples. Record sizes span
// two orders of magnitude within one workload: the arithmetic mean
// follows the rare storm that cuts a hub link, and the median jumps
// between the modes of a mixed-width storm sequence.
func geomean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(float64(max(x, 1)))
	}
	return math.Exp(s / float64(len(xs)))
}

func sum(xs []int64) float64 {
	s := 0.0
	for _, x := range xs {
		s += float64(x)
	}
	return s
}

// pctl is the q-quantile of xs by linear interpolation between order
// statistics.
func pctl(xs []int64, q float64) float64 {
	s := make([]float64, len(xs))
	for i, x := range xs {
		s[i] = float64(x)
	}
	sort.Float64s(s)
	return quantile(s, q)
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}
