package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpuport/internal/analysis"
	"gpuport/internal/apps"
	"gpuport/internal/chip"
	"gpuport/internal/cost"
	"gpuport/internal/cost/columnar"
	"gpuport/internal/dataset"
	"gpuport/internal/fault"
	"gpuport/internal/graph"
	"gpuport/internal/measure"
	"gpuport/internal/microbench"
	"gpuport/internal/obs"
	"gpuport/internal/opt"
	"gpuport/internal/report"
	"gpuport/internal/server"
	"gpuport/internal/tracecache"
)

// cliRuns is gpuport's default number of timed runs per cell.
const cliRuns = 3

// serveBatch is how many ops the serve client makes per round of the
// traced run.
const serveBatch = 12

// opTrace times the layers of one traced op. Spans are sequential, so
// the op's wall time is the sum of its layer times plus the time no
// span covers, which end reports as the op's unattributed time.
type opTrace struct {
	start  time.Time
	order  []string
	parts  map[string]float64 // ms per layer, summed over the op
	allocs map[string]float64 // heap allocations per layer
}

func newOp() *opTrace {
	return &opTrace{start: time.Now(), parts: map[string]float64{}, allocs: map[string]float64{}}
}

// span runs f as a call into layer name. withAllocs also counts the
// heap allocations made meanwhile (by every goroutine).
func (o *opTrace) span(name string, withAllocs bool, f func()) {
	var m0, m1 runtime.MemStats
	if withAllocs {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	f()
	d := time.Since(t0)
	if withAllocs {
		runtime.ReadMemStats(&m1)
		o.allocs[name] += float64(m1.Mallocs - m0.Mallocs)
	}
	if _, seen := o.parts[name]; !seen {
		o.order = append(o.order, name)
	}
	o.parts[name] += ms(d)
}

// end closes the op and returns its wall time in milliseconds.
func (o *opTrace) end(unattributed string) float64 {
	wall := ms(time.Since(o.start))
	sum := 0.0
	for _, name := range o.order {
		sum += o.parts[name]
	}
	o.parts[unattributed] = wall - sum
	o.order = append(o.order, unattributed)
	return wall
}

// accounting renders the op as its layer times adding up to its wall
// time.
func (o *opTrace) accounting(path string, wall float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s traced op %.3f ms =", path, wall)
	for i, name := range o.order {
		if i > 0 {
			sb.WriteString(" +")
		}
		fmt.Fprintf(&sb, " %s %.3f", name, o.parts[name])
	}
	return sb.String()
}

// tracer gathers the per-layer samples of a traced run.
type tracer struct {
	samples map[string][]float64
	// ops keeps every traced op per path, for the accounting printout.
	ops map[string][]tracedOp
}

type tracedOp struct {
	op   *opTrace
	wall float64
}

func newTracer() *tracer {
	return &tracer{samples: map[string][]float64{}, ops: map[string][]tracedOp{}}
}

func (t *tracer) add(name string, v float64) { t.samples[name] = append(t.samples[name], v) }

func (t *tracer) record(path string, o *opTrace, wall float64) {
	for _, name := range o.order {
		t.add(name+"_ms", o.parts[name])
	}
	for name, n := range o.allocs {
		t.add(name+"_allocs", n)
	}
	t.add(path+".traced_op_ms", wall)
	t.ops[path] = append(t.ops[path], tracedOp{o, wall})
}

// medianOp returns the path's op whose wall time is the median.
func (t *tracer) medianOp(path string) (tracedOp, bool) {
	ops := append([]tracedOp(nil), t.ops[path]...)
	if len(ops) == 0 {
		return tracedOp{}, false
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].wall < ops[j].wall })
	return ops[(len(ops)-1)/2], true
}

// parallel runs f(0..n-1) on GOMAXPROCS workers, as gpuport's worker
// pools do by default.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// collectReplay performs the collection `gpuport dataset` does, one
// layer call at a time: the public calls measure.CollectReport makes on
// a fault-free, cache-free run, with its per-cell noise draws and
// record assembly done here so that they can be timed apart from cost
// evaluation. counts receives the layers' work counts.
func collectReplay(o *opTrace, seed uint64, counts map[string]float64) (*dataset.Dataset, error) {
	var inputs []*graph.Graph
	o.span("graph.generate", false, func() { inputs = graph.StandardInputs() })
	rec := obs.New()
	opts := measure.Options{Seed: seed, Runs: cliRuns, Inputs: inputs, Obs: rec}
	var profiles []*cost.TraceProfile
	var err error
	o.span("irgl.trace", false, func() { profiles, err = measure.Traces(opts) })
	if err != nil {
		return nil, err
	}
	sum := rec.Summary()
	counts["irgl.pairs"] = float64(len(profiles))
	counts["irgl.kernel_launches"] = float64(sum.Counter(obs.CtrKernelLaunches))
	counts["irgl.edge_work"] = float64(sum.Counter(obs.CtrEdgeWork))

	cols := make([]*columnar.Columns, len(profiles))
	o.span("columnar.build", false, func() {
		for i, tp := range profiles {
			cols[i] = columnar.Build(tp)
		}
	})
	chips, configs := chip.All(), opt.All()
	nt, nc := len(profiles), len(configs)
	jobs := len(chips) * nt // (chip, trace) pairs in measure's job order
	base := make([]float64, jobs*nc)
	o.span("columnar.evaluate", false, func() {
		parallel(jobs, func(j int) {
			ev := columnar.NewEvaluator(chips[j/nt], cols[j%nt])
			for k, cfg := range configs {
				base[j*nc+k] = ev.Estimate(cfg)
			}
		})
	})
	counts["columnar.estimates"] = float64(len(base))

	d := dataset.New()
	o.span("measure.collect", true, func() {
		records := make([]dataset.Record, len(base))
		parallel(jobs, func(j int) {
			ch, tp := chips[j/nt], profiles[j%nt]
			for k, cfg := range configs {
				// measure's cell key; its format is frozen because it
				// seeds the noise stream.
				key := fmt.Sprintf("%d|%s|%s|%s|%s", seed, ch.Name, tp.App, tp.Input, cfg.String())
				factors := fault.NoiseFactors(key, 0, cliRuns, ch.NoiseSigma)
				samples := make([]float64, len(factors))
				for i, f := range factors {
					samples[i] = base[j*nc+k] * f
				}
				records[j*nc+k] = dataset.Record{
					Key:     dataset.Key{Tuple: dataset.Tuple{Chip: ch.Name, App: tp.App, Input: tp.Input}, Config: cfg},
					Samples: samples,
				}
			}
		})
		for _, r := range records {
			d.Add(r)
		}
	})
	counts["dataset.cells"] = float64(d.Len())
	return d, nil
}

// collectOp is the traced collect op: the collection, then the CSV
// written to a file as `gpuport -out` does. It returns the file's
// bytes.
func collectOp(o *opTrace, seed uint64, path string, counts map[string]float64) ([]byte, error) {
	d, err := collectReplay(o, seed, counts)
	if err != nil {
		return nil, err
	}
	o.span("dataset.write_csv", false, func() {
		var f *os.File
		if f, err = os.Create(path); err != nil {
			return
		}
		if err = d.WriteCSV(f); err != nil {
			f.Close()
			return
		}
		err = f.Close()
	})
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	return os.ReadFile(path)
}

// studyOp is the traced study-all op: the collection, then every
// analysis, microbenchmark and renderer `gpuport all` calls, in the
// CLI's order. It returns what the CLI would print.
func studyOp(o *opTrace, seed uint64, counts map[string]float64) ([]byte, error) {
	d, err := collectReplay(o, seed, counts)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w := &buf
	render := func(f func(io.Writer) error) {
		o.span("report.render", false, func() {
			if rerr := f(w); rerr != nil && err == nil {
				err = rerr
			}
		})
	}
	layer := func(name string, f func()) { o.span(name, true, f) }
	blank := func(w io.Writer) error { _, err := fmt.Fprintln(w); return err }
	specs := map[string]*analysis.Specialisation{}
	specialise := func(dims analysis.Dims) *analysis.Specialisation {
		name := dims.Name()
		if specs[name] == nil {
			layer("analysis.specialise."+name, func() { specs[name] = analysis.Specialise(d, dims) })
		}
		return specs[name]
	}

	render(func(w io.Writer) error { return report.TuplesSummary(w, d) })
	// A clean, cache-free collection has no campaign accounting to
	// print.
	render(blank)
	render(func(w io.Writer) error { return report.Chips(w, chip.All()) })
	render(blank)
	var extremes []analysis.Extreme
	layer("analysis.extremes", func() { extremes = analysis.Extremes(d) })
	render(func(w io.Writer) error { return report.Extremes(w, extremes) })
	var maxOracle float64
	layer("analysis.max_oracle", func() { maxOracle = analysis.MaxOracleGeoMean(d) })
	render(func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "max oracle geomean speedup over baseline: %.2fx\n\n", maxOracle)
		return err
	})

	// Table III.
	var ranks []analysis.ConfigRank
	layer("analysis.rank_configs", func() { ranks = analysis.RankConfigs(d) })
	ours := globalRank(specialise(analysis.Dims{}), ranks)
	render(func(w io.Writer) error { return report.ConfigRanks(w, ranks, ours, len(d.Tuples())) })
	render(blank)
	// Table IV.
	var maxGeo analysis.ConfigRank
	var countsMax, countsOurs []analysis.ChipCounts
	layer("analysis.per_chip_counts", func() {
		maxGeo = analysis.MaxGeoMeanConfig(ranks)
		countsMax = analysis.PerChipCounts(d, maxGeo.Config)
		countsOurs = analysis.PerChipCounts(d, ours.Config)
	})
	render(func(w io.Writer) error {
		return report.ChipCounts(w, maxGeo.Config, countsMax, ours.Config, countsOurs)
	})
	render(blank)

	render(func(w io.Writer) error { return report.Strategies(w) })
	render(blank)
	render(func(w io.Writer) error { return report.OptSummary(w) })
	render(blank)
	render(func(w io.Writer) error { return report.Apps(w, apps.All()) })
	render(blank)
	var props []graph.Properties
	o.span("graph.inputs", false, func() {
		for _, g := range graph.StandardInputs() {
			props = append(props, graph.Analyze(g))
		}
	})
	render(func(w io.Writer) error { return report.Inputs(w, props) })
	render(blank)

	perChip := specialise(analysis.Dims{Chip: true})
	render(func(w io.Writer) error { return report.ChipRecommendations(w, perChip) })
	render(blank)
	var sgcmb, mdivg []microbench.Speedup
	o.span("microbench.table_x", false, func() { sgcmb, mdivg = microbench.TableX(chip.All()) })
	render(func(w io.Writer) error { return renderTableX(w, sgcmb, mdivg) })
	render(blank)

	var heat *analysis.Heatmap
	layer("analysis.heatmap", func() { heat = analysis.CrossChipHeatmap(d) })
	render(func(w io.Writer) error { return report.Heatmap(w, heat) })
	render(blank)
	var freqs []analysis.FlagFrequency
	layer("analysis.top_speedup_opts", func() { freqs = analysis.TopSpeedupOpts(d) })
	render(func(w io.Writer) error { return report.FlagFrequencies(w, freqs) })
	render(blank)

	strategies := []*analysis.Strategy{analysis.Baseline()}
	for _, dims := range analysis.AllDims() {
		strategies = append(strategies, specialise(dims).Strategy)
	}
	var oracle *analysis.Strategy
	layer("analysis.oracle", func() { oracle = analysis.Oracle(d) })
	strategies = append(strategies, oracle)
	var evals []analysis.StrategyEval
	var excluded int
	layer("analysis.evaluate_all", func() { evals, excluded = analysis.EvaluateAll(d, strategies) })
	render(func(w io.Writer) error { return report.StrategyOutcomes(w, evals, excluded) })
	render(blank)
	render(func(w io.Writer) error { return report.StrategySlowdowns(w, evals) })
	render(blank)

	var sweep []float64
	var series [][]microbench.UtilisationPoint
	o.span("microbench.launch_overhead", false, func() {
		sweep = microbench.Figure5Sweep()
		for _, ch := range chip.All() {
			series = append(series, microbench.LaunchOverhead(ch, sweep))
		}
	})
	render(func(w io.Writer) error { return renderFigure5(w, sweep, series) })
	return buf.Bytes(), err
}

// globalRank is the Table III row of the global recommendation, or
// rank -1 when it is the baseline.
func globalRank(global *analysis.Specialisation, ranks []analysis.ConfigRank) analysis.ConfigRank {
	cfg := global.Strategy.Config(dataset.Tuple{})
	for _, r := range ranks {
		if r.Config == cfg {
			return r
		}
	}
	return analysis.ConfigRank{Rank: -1, Config: cfg}
}

// renderTableX renders Table X as gpuport does.
func renderTableX(w io.Writer, sgcmb, mdivg []microbench.Speedup) error {
	t := report.NewTable("Table X: microbenchmark speedups per chip", "Bench", "M4000", "GTX1080", "HD5500", "IRIS", "R9", "MALI").
		RightAlign(1, 2, 3, 4, 5, 6)
	row := func(name string, sp []microbench.Speedup) {
		cells := []any{name}
		for _, s := range sp {
			cells = append(cells, report.F(s.Factor, 2))
		}
		t.Row(cells...)
	}
	row("sg-cmb", sgcmb)
	row("m-divg", mdivg)
	return t.Render(w)
}

// renderFigure5 renders Figure 5 as gpuport does.
func renderFigure5(w io.Writer, sweep []float64, series [][]microbench.UtilisationPoint) error {
	t := report.NewTable("Figure 5: GPU utilisation vs kernel duration (10000 launches + copies)",
		"Kernel (us)", "M4000", "GTX1080", "HD5500", "IRIS", "R9", "MALI").
		RightAlign(0, 1, 2, 3, 4, 5, 6)
	for pi, t0 := range sweep {
		cells := []any{report.F(t0/1000, 0)}
		for ci := range series {
			cells = append(cells, report.F(series[ci][pi].Utilisation*100, 0)+"%")
		}
		t.Row(cells...)
	}
	return t.Render(w)
}

// inProcessServer is a campaign server on a loopback listener inside
// the benchmark process, over its own job directory and trace cache.
type inProcessServer struct {
	srv    *server.Server
	hs     *http.Server
	api    *api
	jobdir string
	cancel context.CancelFunc
	served chan struct{}
}

func startInProcessServer(dir string) (*inProcessServer, error) {
	rec := obs.New().EnableTracing()
	store, err := tracecache.Open(filepath.Join(dir, "cache"), 0)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &inProcessServer{jobdir: filepath.Join(dir, "jobs"), cancel: cancel, served: make(chan struct{})}
	p.srv, err = server.New(server.Config{Ctx: ctx, JobDir: p.jobdir, Obs: rec, TraceCache: store.SetObs(rec)})
	if err != nil {
		cancel()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.srv.Close()
		cancel()
		return nil, err
	}
	p.hs = &http.Server{Handler: p.srv.Handler()}
	go func() {
		defer close(p.served)
		_ = p.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	p.api = newAPI(ln.Addr().String())
	return p, nil
}

func (p *inProcessServer) close() {
	p.api.close()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = p.hs.Shutdown(sctx) // best-effort: the benchmark is done with it
	<-p.served
	p.srv.Close()
	p.cancel()
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// runTraced replays the three user paths in-process, in rounds, until
// the run's time is up: a collect op, a study-all op, and a batch of
// serve-mixed ops against an in-process server. Every traced run
// covers every path, so that it reports every per-layer metric; the
// outputs are checked as in the untraced runs.
func runTraced(b *bench) (*result, error) {
	r := &result{}
	t := newTracer()
	counts := map[string]float64{}

	srv, err := startInProcessServer(filepath.Join(b.state, "server"))
	if err != nil {
		return nil, err
	}
	defer srv.close()
	full, err := srv.api.campaign(server.Spec{Seed: b.seed})
	if err != nil {
		return nil, fmt.Errorf("set-up campaign: %w", err)
	}
	if err := b.check("full-study result", full, nil, digestDatasetCSV); err != nil {
		r.problem("set-up: %v", err)
	}
	expected, err := subspaceRows(full)
	if err != nil {
		return nil, err
	}
	before, err := srv.api.counters()
	if err != nil {
		return nil, err
	}
	client := newServeClient(b.seed)
	httpErrors := 0

	var refCSV, refStudy []byte
	tally := func(err error) {
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintln(b.log, "perfbench:", err)
		}
	}

	deadline := time.Now().Add(b.seconds)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		o := newOp()
		csv, err := collectOp(o, b.seed, filepath.Join(b.state, "d.csv"), counts)
		if err == nil {
			t.record(wlCollect, o, o.end("collect.unattributed"))
			counts["dataset.csv_bytes"] = float64(len(csv))
			err = b.check("traced collect CSV", csv, refCSV, digestDatasetCSV)
			if refCSV == nil {
				refCSV = csv
			}
		}
		tally(err)

		o = newOp()
		out, err := studyOp(o, b.seed, counts)
		if err == nil {
			t.record(wlStudyAll, o, o.end("study.unattributed"))
			err = b.check("traced study-all stdout", out, refStudy, digestStudyStdout)
			if refStudy == nil {
				refStudy = out
			}
		}
		tally(err)

		ops := b.runClient(srv.api, expected, client, func(i int) bool { return i >= serveBatch })
		for _, op := range ops {
			tally(op.err)
			if op.httpErr {
				httpErrors++
			}
			if op.err != nil {
				continue
			}
			class := "hit"
			if op.fresh {
				class = "fresh"
			}
			t.add("server.submit_"+class+"_ms", ms(op.submit))
			t.add("server.result_"+class+"_ms", ms(op.result))
			t.add(wlServeMixed+".traced_op_ms", ms(op.wall()))
			t.add("server.result_bytes", float64(op.bytes))
			start := time.Now()
			_, camp, serr := op.spec.Resolve()
			t.add("server.resolve_ms", ms(time.Since(start)))
			if serr != nil {
				return nil, serr
			}
			start = time.Now()
			_ = camp.Fingerprint() // timed, not used
			t.add("measure.fingerprint_ms", ms(time.Since(start)))
		}
	}
	after, err := srv.api.counters()
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	lookups := delta(obs.CtrCacheHits) + delta(obs.CtrCacheMisses)
	counts["tracecache.lookups"] = lookups
	counts["tracecache.hit_ratio"] = delta(obs.CtrCacheHits) / lookups
	counts["server.jobs_completed"] = delta(obs.CtrJobsCompleted)
	counts["server.jobs_cached"] = delta(obs.CtrJobsCached)
	counts["server.jobs_deduped"] = delta(obs.CtrJobsDeduped)
	counts["server.http_errors"] = float64(httpErrors)
	jb, err := dirBytes(srv.jobdir)
	if err != nil {
		return nil, err
	}
	counts["server.jobdir_bytes"] = float64(jb)

	for _, path := range []string{wlCollect, wlStudyAll} {
		if op, ok := t.medianOp(path); ok {
			r.notes = append(r.notes, op.op.accounting(path, op.wall))
		}
	}
	for _, pl := range perLayer {
		if v, ok := counts[pl.name]; ok {
			r.add(pl.name, pl.unit, v, 1, "count from the traced run")
			continue
		}
		s := summarise(t.samples[pl.name])
		if s.n == 0 {
			r.problem("traced run recorded no %s", pl.name)
			continue
		}
		r.add(pl.name, pl.unit, s.median, s.n, "median over the traced run")
	}
	return r, nil
}
