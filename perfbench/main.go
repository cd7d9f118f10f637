// Command perfbench is the ladiff benchmark: it runs one named workload
// against the library, the server, or the routed document store, checks
// every output, and prints one JSON result line. See README.md for the
// workloads and the meaning of every metric.
//
// Usage:
//
//	perfbench -workload lib-latex|serve-open|docs-routed -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times set-up is repeated (setupRuns, fewer in
	// the benchmark's own tests).
	setups int
	// small shrinks corpora and rates for the benchmark's own tests.
	small bool
	// workdir holds the store logs of docs-routed.
	workdir string
}

// bench is one prepared workload.
type bench interface {
	// timed runs ops for d; tr is nil outside a traced segment.
	timed(d time.Duration, tr *tracer) (*sample, error)
	// exact returns counters that must repeat bit for bit for one seed.
	exact() map[string]float64
	// layers turns the traced segment just run into per-layer metrics.
	layers(tr *tracer, s *sample) (map[string]float64, error)
	// info describes the load: rate, clients, corpus.
	info() map[string]any
	close() error
}

var workloads = map[string]func(o options) (bench, error){
	"lib-latex":   setupLibLatex,
	"serve-open":  setupServeOpen,
	"docs-routed": setupDocsRouted,
}

// endToEnd lists the user-visible metrics every workload reports with
// -trace 0. fail_share is reported as its complement ok_share, which is
// never zero. Tail latencies are reported among the per-layer metrics,
// where no bound gates them: on a shared VM, host CPU steal lands in the
// tail, and over ten seeds the spread of p99 reached 0.58 (lib-latex) and
// that of p90 0.45 (serve-open), while p50's stayed under 0.11.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kib_per_op", "KiB"},
	{"peak_rss_mib", "MiB"},
	{"ok_share", "ratio"},
}

// perLayer lists the metrics every workload reports with -trace 1; a
// layer a workload does not reach reports 0.
var perLayer = []struct{ name, unit string }{
	{"op_p90_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"parse.ms_per_op", "ms"},
	{"parse.alloc_kib_per_op", "KiB"},
	{"match.ms_per_op", "ms"},
	{"match.r1_leaf_compares", "count/op"},
	{"match.r2_partner_checks", "count/op"},
	{"match.effective_leaf_compares", "count/op"},
	{"match.memo_hit_ratio", "ratio"},
	{"gen.ms_per_op", "ms"},
	{"gen.effective_pos_scans", "count/op"},
	{"gen.script_ops", "count/op"},
	{"delta.ms_per_op", "ms"},
	{"render.ms_per_op", "ms"},
	{"http.self_ms_per_req", "ms"},
	{"server.handler_ms_per_req", "ms"},
	{"server.exec_ms_per_req", "ms"},
	{"server.io_ms_per_req", "ms"},
	{"server.parse_ms_per_req", "ms"},
	{"server.match_ms_per_req", "ms"},
	{"server.generate_ms_per_req", "ms"},
	{"server.render_ms_per_req", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"sched.rejected_queue", "count"},
	{"route.hop_ms_per_req", "ms"},
	{"route.retries", "count"},
	{"route.failovers", "count"},
	{"store.ingest_ms_per_op", "ms"},
	{"store.noop_ingest_ms_per_op", "ms"},
	{"store.checkout_ms_per_op", "ms"},
	{"store.diff_ms_per_op", "ms"},
	{"store.checkout_replays_per_op", "count/op"},
	{"store.log_bytes_per_version", "B"},
	{"feed.delay_ms_p50", "ms"},
	{"feed.dropped", "count"},
	{"corpus.nodes_per_op", "count/op"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"runtime.gc_pause_ms_p99", "ms"},
	{"loadgen.late_ms_p99", "ms"},
	{"trace.overhead_pct", "%"},
	{"anatomy.unexplained_pct", "%"},
}

// mustBeZero are per-layer counts of refused, retried or lost work; any
// of them above zero flags the run.
var mustBeZero = []string{"sched.rejected_queue", "route.retries", "route.failovers", "feed.dropped"}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRuns is how many times a run repeats set-up; setup_s is their
// median, and the exact counters must agree across all of them.
const setupRuns = 3

func main() {
	o := options{setups: setupRuns}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: lib-latex, serve-open or docs-routed")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced anatomy and prints the per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/perfbench/work", "directory for store logs")
	flag.Parse()
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || flag.NArg() > 0 || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload lib-latex|serve-open|docs-routed -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	res, env, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if b, err := json.Marshal(map[string]any{"env": env}); err == nil {
		fmt.Fprintln(os.Stderr, string(b))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run: the repeated set-up, then either the
// untraced measured window or the untraced and traced anatomy segments.
// A returned error means the run could not complete at all; wrong
// outputs are reported in the result instead.
func run(o options) (result, map[string]any, error) {
	if o.setups < 1 {
		o.setups = 1
	}
	var problems []string
	var setupTimes []float64
	var b bench
	var first map[string]float64
	for i := 0; i < o.setups; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return result{}, nil, err
			}
			b = nil
			runtime.GC()
		}
		start := time.Now()
		nb, err := workloads[o.workload](o)
		if err != nil {
			return result{}, nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		b = nb
		if ex := b.exact(); first == nil {
			first = ex
		} else if !maps.Equal(first, ex) {
			problems = append(problems, fmt.Sprintf("exact counters differ between set-ups: %v vs %v", first, ex))
		}
	}
	defer b.close()

	env := environment(o)
	env["setup_s"] = setupTimes
	for k, v := range b.info() {
		env[k] = v
	}
	d := time.Duration(o.seconds * float64(time.Second))

	res := result{Metrics: map[string]metric{}}
	var measured *sample
	if !o.trace {
		s, err := timedWindow(b, d, nil)
		if err != nil {
			return result{}, nil, err
		}
		measured = s
		n := len(s.lat)
		failed := s.failed()
		p50s, p90s, p99s := windowedQuantiles(s.lat)
		env["window_p50_ms"], env["window_p90_ms"], env["window_p99_ms"] = p50s, p90s, p99s
		res.Metrics["setup_s"] = metric{median(setupTimes), "s"}
		res.Metrics["op_p50_ms"] = metric{finite(median(p50s)), "ms"}
		if n >= minOpsForP99 {
			env["op_p90_ms"], env["op_p99_ms"] = finite(median(p90s)), finite(median(p99s))
		} else {
			problems = append(problems, fmt.Sprintf("only %d ops completed; tail quantiles need at least %d", n, minOpsForP99))
		}
		perOp := float64(max(n, 1))
		res.Metrics["cpu_ms_per_op"] = metric{ms(s.win.cpu) / perOp, "ms"}
		res.Metrics["alloc_kib_per_op"] = metric{float64(s.win.allocBytes) / 1024 / perOp, "KiB"}
		res.Metrics["peak_rss_mib"] = metric{peakRSSMiB(), "MiB"}
		env["peak_rss_reset"] = s.win.rssResetErr == nil
		if s.win.rssResetErr != nil {
			env["peak_rss_reset_error"] = s.win.rssResetErr.Error()
		}
		res.Metrics["ok_share"] = metric{1 - float64(failed)/perOp, "ratio"}
		env["late_ms_p99"] = quantile(sortedCopy(s.late), 0.99)
	} else {
		// The traced segment sits between two untraced halves, so a
		// drift through the run cancels out of the comparison (on
		// docs-routed, GC work per op falls as the store grows).
		plain, err := timedWindow(b, d*45/200, nil)
		if err != nil {
			return result{}, nil, err
		}
		tr := newTracer()
		traced, err := timedWindow(b, d*45/100, tr)
		if err != nil {
			return result{}, nil, err
		}
		measured = traced
		layers, err := b.layers(tr, traced)
		if err != nil {
			return result{}, nil, err
		}
		rest, err := timedWindow(b, d*45/200, nil)
		if err != nil {
			return result{}, nil, err
		}
		env["segment_cpu_ms_per_op"] = []float64{plain.cpuPerOp(), traced.cpuPerOp(), rest.cpuPerOp()}
		plain.join(rest)
		for k, v := range b.exact() {
			layers[k] = v
		}
		if len(plain.lat) >= minOpsForP99 {
			_, p90s, p99s := windowedQuantiles(plain.lat)
			layers["op_p90_ms"], layers["op_p99_ms"] = finite(median(p90s)), finite(median(p99s))
		} else {
			problems = append(problems, fmt.Sprintf("only %d untraced ops completed; tail quantiles need at least %d", len(plain.lat), minOpsForP99))
		}
		n := float64(max(len(plain.lat), 1))
		layers["runtime.gc_cycles_per_kop"] = float64(plain.win.gcCycles) * 1000 / n
		layers["runtime.gc_pause_ms_p99"] = plain.win.pauseP99
		layers["loadgen.late_ms_p99"] = quantile(sortedCopy(plain.late), 0.99)
		// Tracing overhead is the extra CPU per op of the traced segment.
		if base := ms(plain.win.cpu) / n; base > 0 {
			layers["trace.overhead_pct"] = 100 * (ms(traced.win.cpu)/float64(max(len(traced.lat), 1)) - base) / base
		}
		if u := layers["anatomy.unexplained_pct"]; u > 10 {
			problems = append(problems, fmt.Sprintf("layer self times leave %.1f%% of op time unexplained (limit 10%%)", u))
		}
		// io is the handler span less the independently measured exec
		// time; exec outgrowing the span it runs in means the two
		// measurements disagree.
		if io := layers["server.io_ms_per_req"]; io < 0 {
			problems = append(problems, fmt.Sprintf("server exec time exceeds its handler span by %.3f ms per request", -io))
		}
		for _, name := range mustBeZero {
			if v := layers[name]; v != 0 {
				problems = append(problems, fmt.Sprintf("%s = %v, must be 0", name, v))
			}
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{layers[m.name], m.unit}
		}
		env["untraced_ops"] = len(plain.lat)
		measured.lat = append(measured.lat, plain.lat...)
	}
	res.Attempted = int64(len(measured.lat))
	res.Failed = measured.failed()
	env["ops"] = res.Attempted
	if res.Attempted == 0 {
		return result{}, nil, errors.New("no op completed")
	}
	if res.Failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d ops failed or returned wrong output", res.Failed, res.Attempted))
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	env["problems"] = problems
	res.Correct = len(problems) == 0
	return res, env, nil
}

// timedWindow runs one segment and charges it the runtime cost between
// its ends.
func timedWindow(b bench, d time.Duration, tr *tracer) (*sample, error) {
	runtime.GC()
	resetErr := resetPeakRSS()
	before := readRuntime()
	s, err := b.timed(d, tr)
	if err != nil {
		return nil, err
	}
	s.win = windowBetween(before, readRuntime())
	s.win.rssResetErr = resetErr
	return s, nil
}

// environment records what a reader needs to compare two runs.
func environment(o options) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}
