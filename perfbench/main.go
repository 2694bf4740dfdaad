// Command perfbench is the sidq repository benchmark. It spawns
// cmd/sidqserve as a separate process for one workload, drives the
// workload's seeded inputs from this process over at most two HTTP
// connections, checks the outputs, and prints every metric by name.
// See README.md in this directory for the workloads, the metrics and
// how to compare two commits.
//
// Run it through run.sh from the root of a checkout, which builds the
// server and this command from source first:
//
//	bash perfbench/run.sh --workload clean-batch --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object
// with the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics, taken from /v1/metrics deltas around the open-loop phase
// and from a separate in-process traced run whose spans are written to
// <work>/trace/. The human-readable tables go to standard error.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// e2eNames are the end-to-end metrics of the --trace 0 result line:
// the ones every workload reports that stay steady from run to run on a
// shared 2-vCPU VM. The standard-error table prints the rest (latency
// quantiles, recover_s, points_per_s, error_rate) too.
var e2eNames = []string{"setup_s", "cpu_us_per_event", "peak_rss_mb"}

// layerNames are the per-layer metrics of the --trace 1 result line.
// A layer a workload does not run reports 0 there.
var layerNames = []string{
	"server.ingest_ms", "server.results_ms", "server.history_ms", "server.clean_ms",
	"server.overhead_ms", "server.shed",
	"trajectory.read_csv_us_per_point", "trajectory.write_csv_us_per_point",
	"core.assess_us_per_point", "core.stages_per_request", "core.plan_self_us_per_point",
	"core.stage.deduplicate_us_per_point", "core.stage.timestamp-repair_us_per_point",
	"core.stage.outlier-removal_us_per_point", "core.stage.kalman-smoothing_us_per_point",
	"core.stage.interpolation-impute_us_per_point",
	"stream.fanout_us_per_chunk", "stream.reorder_us_per_event", "stream.reorder_pending_max",
	"stream.late_ratio", "stream.accept_ratio", "stream.snapshots_per_kchunk",
	"store.append_us_per_record", "store.bytes_per_event", "store.snapshot_bytes_share",
	"store.fsync_ms", "store.fsyncs_per_kappend", "store.replay_us_per_record",
	"store.replay_share_of_recover", "store.read_range_us_per_record", "store.disk_mb",
	"uncertain.match_us_per_point", "uncertain.match_pending_max",
	"roadnet.heap_pops_per_point", "roadnet.many_sweeps_per_point", "roadnet.cache_hit_ratio",
	"bench.gen_lag_p99_ms", "bench.client_cpu_s", "bench.trace_overhead",
}

// workload runs one workload end to end into e.
type workload struct {
	run func(e *env) error
	// p99Rate is the open-loop rate, in requests per second, of the
	// workload's slowest route with a reported p99.
	p99Rate float64
}

var workloads = map[string]workload{
	"stream-durable": {runStreamDurable, durableShape.p99Rate()},
	"stream-match":   {runStreamMatch, matchShape.p99Rate()},
	"clean-batch":    {runCleanBatch, cleanRate},
}

// minSeconds is the shortest --seconds whose open loop gives each of
// w's p99 routes the samples its p99 needs, rounded up to 0.1 s.
func minSeconds(w workload) float64 {
	return math.Ceil(float64(minSamples(0.99))/(w.p99Rate*openLoopShare)*10) / 10
}

// env is the state of one benchmark run.
type env struct {
	name    string
	seed    int64
	seconds float64
	trace   bool
	bin     string // sidqserve binary
	dir     string // this run's temporary directory
	outDir  string // where trace files go
	log     *os.File
	a, b    conn
	e2e     report // end-to-end rows (and the per-route extras)
	layers  report
	chk     checker
	table   []layerRow // traced self time per layer

	crossChecks []string // traced vs scraped stage times, for the log
}

// openLoopShare is the open loop's share of the run's measured time;
// the closed loop has the rest.
const openLoopShare = 0.75

func (e *env) openLoopSeconds() float64   { return e.seconds * openLoopShare }
func (e *env) closedLoopSeconds() float64 { return e.seconds * (1 - openLoopShare) }

// checker counts attempted operations and failed ones, whether a
// request failed or an output check did.
type checker struct {
	attempted, failed int
	msgs              []string
}

func (c *checker) count(attempted, failed int) {
	c.attempted += attempted
	c.failed += failed
}

// check records one output check.
func (c *checker) check(ok bool, format string, args ...interface{}) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.msgs) < 20 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

func (c *checker) addErrs(errs []string) {
	for _, m := range errs {
		if len(c.msgs) < 20 {
			c.msgs = append(c.msgs, m)
		}
	}
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: stream-durable, stream-match or clean-batch")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 30, "measured seconds per run (open loop 3/4, closed loop 1/4)")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics and write spans; 0: report end-to-end metrics")
		bin     = flag.String("server-bin", ".bench_build/sidqserve", "sidqserve binary")
		work    = flag.String("work", ".bench_build", "directory for temporary files and trace output")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --seconds > 0, --trace 0|1\n", strings.Join(sortedWorkloads(), "|"))
		return 2
	}
	if need := minSeconds(w); *seconds < need {
		fmt.Fprintf(os.Stderr, "perfbench: %s needs --seconds >= %g, so that every p99 rests on %d samples\n", *name, need, minSamples(0.99))
		return 2
	}
	if n := runtime.NumCPU(); n < 2 {
		runtime.GOMAXPROCS(n)
	} else {
		runtime.GOMAXPROCS(2)
	}
	e := &env{
		name: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin,
		outDir: filepath.Join(*work, "trace"), a: newConn(), b: newConn(),
	}
	dir, err := os.MkdirTemp(*work, "run-"+*name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e.dir = dir
	if e.log, err = os.Create(filepath.Join(dir, "sidqserve.log")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer e.log.Close()

	// On SIGINT or SIGTERM, stop the spawned server and remove the
	// run's temporary files before exiting.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		killLive()
		os.RemoveAll(dir)
		fmt.Fprintf(os.Stderr, "perfbench: stopped by %v\n", sig)
		os.Exit(1)
	}()

	start := time.Now()
	if err := w.run(e); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		if b, rerr := os.ReadFile(e.log.Name()); rerr == nil && len(b) > 0 {
			fmt.Fprintf(os.Stderr, "sidqserve log:\n%s", tail(b, 2000))
		}
		return 1
	}
	correct := e.chk.failed == 0
	if e.trace {
		for _, n := range layerNames {
			if _, ok := e.layers.get(n); !ok {
				e.layers.add(n, layerUnit(n), 0, 0) // the workload does not run this layer
			}
		}
	}
	e.e2e.add("error_rate", "ratio", ratio(float64(e.chk.failed), float64(e.chk.attempted)), e.chk.attempted)
	title := fmt.Sprintf("perfbench %s seed=%d seconds=%g (%.1fs wall)", *name, *seed, *seconds, time.Since(start).Seconds())
	e.e2e.printTable(os.Stderr, title+" — end to end")
	if e.trace {
		e.layers.printTable(os.Stderr, title+" — per layer")
		printLayerTable(os.Stderr, "traced self time by layer", e.table)
		for _, c := range e.crossChecks {
			fmt.Fprintf(os.Stderr, "cross-check %s\n", c)
		}
	}
	for _, m := range e.chk.msgs {
		fmt.Fprintf(os.Stderr, "FAILED CHECK: %s\n", m)
	}
	names, rep := e2eNames, &e.e2e
	if e.trace {
		names, rep = layerNames, &e.layers
	}
	line, err := resultJSON(rep, names, correct, e.chk.attempted, e.chk.failed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// layerUnit gives the unit of a per-layer metric from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us_per_point"), strings.HasSuffix(name, "_us_per_event"),
		strings.HasSuffix(name, "_us_per_chunk"), strings.HasSuffix(name, "_us_per_record"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_ratio"), strings.Contains(name, "_share"), strings.HasSuffix(name, "_overhead"):
		return "ratio"
	case strings.HasSuffix(name, "_per_event") && strings.HasPrefix(name, "store.bytes"):
		return "B"
	}
	return "count"
}

func sortedWorkloads() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func tail(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}

// clientCPUSeconds returns this process's user+system CPU time.
func clientCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
