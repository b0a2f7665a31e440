// Command perfbench is the end-to-end benchmark of gpuport's three user
// paths: the full study (`gpuport all`), dataset collection
// (`gpuport dataset -out`), and a mix of gpuportd campaigns from submit
// to result. It drives the gpuport and gpuportd binaries built from the
// tree under test, checks the bytes of every op's output, prints every
// metric by name and unit, and ends with one JSON line. A separate
// traced run (-trace 1) replays the three paths in-process and times
// the calls into each layer. NOTES.md has the workload table and the
// map from layer metrics to end-to-end metrics.
//
// Run it from the repository root through run.sh, which builds the
// binaries first:
//
//	bash cmd/perfbench/run.sh --workload collect --seed 42 --seconds 50 --trace 0
//	bash cmd/perfbench/run.sh --selftest
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Workload names. BENCHMARK.json lists collect and serve-mixed;
// study-all runs by name but is not listed, because its run-to-run
// spread on a shared 2-CPU host passes the widest bound (NOTES.md).
const (
	wlStudyAll   = "study-all"
	wlCollect    = "collect"
	wlServeMixed = "serve-mixed"
)

// setupRounds is how many times a run sets up; setup_s is the median.
const setupRounds = 3

// errLeftoverState refuses a run whose state directory is not empty:
// a leftover job directory or trace cache would answer from an earlier
// run's work.
var errLeftoverState = errors.New("state directory is not empty (leftover state from an earlier run)")

// bench is one run's configuration.
type bench struct {
	root    string // repository root, the working directory
	bin     string // directory holding gpuport and gpuportd
	state   string // empty directory for this run's files
	seed    uint64
	seconds time.Duration
	// corruptOp, when positive, flips one byte of the output of that
	// timed op (1-based) before it is checked; the self-test uses it
	// to show that the output checks fire.
	corruptOp int
	log       io.Writer
}

// metric is one printed measurement. n is the sample count behind it
// and note says how it was formed.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	note  string
}

// result is what a run reports.
type result struct {
	attempted int
	failed    int
	// problems are check failures outside the counted ops (for
	// example a set-up output that does not match its digest).
	problems []string
	// notes are printed above the metric table.
	notes   []string
	metrics []metric
}

func (r *result) add(name, unit string, value float64, n int, note string) {
	r.metrics = append(r.metrics, metric{name, unit, value, n, note})
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// checkNames records a problem unless the run measured exactly the
// listed metrics with their units.
func (r *result) checkNames(defs []metricDef) {
	got := map[string]string{}
	for _, m := range r.metrics {
		got[m.name] = m.unit
	}
	for _, d := range defs {
		if unit, ok := got[d.name]; !ok || unit != d.unit {
			r.problem("metric %s (%s) not measured", d.name, d.unit)
		}
		delete(got, d.name)
	}
	for name := range got {
		r.problem("metric %s is not in BENCHMARK.json", name)
	}
}

func (r *result) correct() bool {
	return r.failed == 0 && len(r.problems) == 0 && r.attempted > 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "study-all, collect or serve-mixed")
	seed := fs.Uint64("seed", 42, "workload seed; the programs receive only the inputs made from it")
	seconds := fs.Float64("seconds", 50, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced in-process replay and prints the per-layer metrics")
	selftest := fs.Bool("selftest", false, "run the negative self-tests instead of a workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b := &bench{
		root:    root,
		bin:     filepath.Join(root, ".bench_build", "bin"),
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		log:     stderr,
	}
	if err := checkTree(b); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *selftest {
		return runSelfTest(b, stdout)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	res, err := runOnce(b, *workload, *trace == 1, "")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *trace == 1 {
		res.checkNames(perLayer)
	} else {
		res.checkNames(endToEnd)
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.correct() {
		for _, p := range res.problems {
			fmt.Fprintln(stderr, "perfbench: check failed:", p)
		}
		return 1
	}
	return 0
}

// checkTree refuses to run outside a gpuport checkout with built
// binaries.
func checkTree(b *bench) error {
	for _, p := range []string{"go.mod", "cmd/gpuport", "cmd/gpuportd", "internal/server"} {
		if _, err := os.Stat(filepath.Join(b.root, p)); err != nil {
			return fmt.Errorf("%s is not a gpuport checkout: %w", b.root, err)
		}
	}
	for _, p := range []string{"gpuport", "gpuportd"} {
		if _, err := os.Stat(filepath.Join(b.bin, p)); err != nil {
			return fmt.Errorf("binary missing (build with run.sh): %w", err)
		}
	}
	return nil
}

// runOnce runs one workload in a fresh state directory and removes the
// directory afterwards. A state directory the caller names must be
// empty.
func runOnce(b *bench, workload string, traced bool, state string) (*result, error) {
	switch workload {
	case wlStudyAll, wlCollect, wlServeMixed:
	default:
		return nil, fmt.Errorf("unknown workload %q (study-all, collect or serve-mixed)", workload)
	}
	if state == "" {
		runs := filepath.Join(b.root, ".bench_build", "runs")
		if err := os.MkdirAll(runs, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(runs, workload+"-")
		if err != nil {
			return nil, err
		}
		state = dir
	} else {
		if err := os.MkdirAll(state, 0o755); err != nil {
			return nil, err
		}
		entries, err := os.ReadDir(state)
		if err != nil {
			return nil, err
		}
		if len(entries) > 0 {
			return nil, fmt.Errorf("%s: %w", state, errLeftoverState)
		}
	}
	defer os.RemoveAll(state)
	b.state = state
	before := hostCheckMS()
	var res *result
	var err error
	switch {
	case traced:
		res, err = runTraced(b)
	case workload == wlServeMixed:
		res, err = runServe(b)
	default:
		res, err = runCLI(b, workload)
	}
	if err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("host check: sha256 of 16 MiB took %.3f ms before the run and %.3f ms after", before, hostCheckMS()))
	return res, nil
}

// hostCheckMS times a fixed computation that does not involve gpuport
// (sha256 over 16 MiB, median of 5), so that a reader can tell a slow
// host from a slow program when comparing runs.
func hostCheckMS() float64 {
	buf := make([]byte, 16<<20)
	var ts []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		sha256.Sum256(buf)
		ts = append(ts, ms(time.Since(t0)))
	}
	return medianOf(ts)
}

// printResult prints the metric table and then, as the last line, the
// JSON object with every metric's value and unit.
func printResult(w io.Writer, r *result) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]jsonMetric{}}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	ms := append([]metric(nil), r.metrics...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s has no value", m.name)
		}
		fmt.Fprintf(w, "%-36s %16.4f %-6s n=%-5d %s\n", m.name, m.value, m.unit, m.n, m.note)
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d\n", r.attempted, r.failed)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// addEndToEnd adds the seven end-to-end metrics shared by every
// workload. fresh and hit are the op classes; a workload without a hit
// class passes nil for hit and reports all ops in both.
func addEndToEnd(r *result, setup []float64, all, fresh, hit []float64, window time.Duration, okOps int, rssMB float64, classNote string) {
	s := summarise(setup)
	r.add("setup_s", "s", s.median, s.n, "median of the set-up rounds")
	op := summarise(all)
	r.add("op_p50_ms", "ms", op.median, op.n, "median op wall time")
	if op.tailOK {
		r.add("op_tail_ms", "ms", op.tail, op.n, fmt.Sprintf("p%.1f: the highest percentile with %d samples beyond it", op.tailPct, tailMin))
	} else {
		r.add("op_tail_ms", "ms", op.max, op.n, fmt.Sprintf("no percentile has %d samples beyond it; the slowest op stands in", tailMin))
	}
	f := summarise(fresh)
	r.add("fresh_p50_ms", "ms", f.median, f.n, "median fresh op"+classNote)
	if hit == nil {
		r.add("hit_p50_ms", "ms", op.median, op.n, "no hit class"+classNote)
	} else {
		h := summarise(hit)
		r.add("hit_p50_ms", "ms", h.median, h.n, "median hit op")
	}
	r.add("ops_per_s", "1/s", float64(okOps)/window.Seconds(), okOps, fmt.Sprintf("over %.3f s of timed wall time", window.Seconds()))
	r.add("ok_share", "share", float64(okOps)/float64(r.attempted), r.attempted, "ops that succeeded and passed the output check")
	r.add("peak_rss_mb", "MB", rssMB, 1, "peak resident set of the program")
}

// corrupt flips one byte of out when op is the op the self-test picked.
func (b *bench) corrupt(op int, out []byte) {
	if b.corruptOp > 0 && op == b.corruptOp && len(out) > 0 {
		out[len(out)/2] ^= 0x01
	}
}
