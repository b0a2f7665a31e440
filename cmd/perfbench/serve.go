package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gpuport/internal/apps"
	"gpuport/internal/chip"
	"gpuport/internal/server"
	"gpuport/internal/stats"
)

// freshOneIn makes about one op in this many a fresh campaign while
// the client has campaigns left to submit and one to resubmit.
//
// serve-mixed has one closed-loop client. With two, the daemon ran two
// submits and up to two campaigns at once on the 2-CPU machine the
// benchmark was sized on, and in runs paired seed by seed the median
// op spread about 3.5 times as much from run to run (NOTES.md).
const freshOneIn = 2

// subspace is one fresh campaign: a chip x app slice of the study
// (3 inputs x 96 configurations = 288 cells).
type subspace struct{ chip, app string }

func (s subspace) spec(seed uint64) server.Spec {
	return server.Spec{Seed: seed, Chips: []string{s.chip}, Apps: []string{s.app}}
}

// api is an HTTP client of one gpuportd.
type api struct {
	base string
	hc   *http.Client
}

func newAPI(addr string) *api {
	return &api{
		base: "http://" + addr,
		hc:   &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{}},
	}
}

func (a *api) close() { a.hc.CloseIdleConnections() }

// do sends one request and returns the body of a 200 response.
func (a *api) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, a.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// submit POSTs a campaign and returns its id.
func (a *api) submit(spec server.Spec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	out, err := a.do(http.MethodPost, "/v1/campaigns", body)
	if err != nil {
		return "", err
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out, &st); err != nil || st.ID == "" {
		return "", fmt.Errorf("submit: no campaign id in %q", out)
	}
	return st.ID, nil
}

// result blocks until the campaign is done and returns its CSV.
func (a *api) result(id string) ([]byte, error) {
	return a.do(http.MethodGet, "/v1/campaigns/"+id+"/result?wait=1", nil)
}

// campaign submits a spec and waits for its result.
func (a *api) campaign(spec server.Spec) ([]byte, error) {
	id, err := a.submit(spec)
	if err != nil {
		return nil, err
	}
	return a.result(id)
}

// counters scrapes the daemon's pipeline counters from /metrics.
func (a *api) counters() (map[string]int64, error) {
	out, err := a.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	const prefix = `gpuport_counter_total{name="`
	cs := map[string]int64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		name, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", sc.Text(), err)
		}
		cs[name] = v
	}
	return cs, sc.Err()
}

// subspaceRows splits a full-study result CSV into the body each
// chip x app campaign must return: the header plus that slice's rows,
// in the full result's order.
func subspaceRows(full []byte) (map[subspace][]byte, error) {
	lines := bytes.SplitAfter(full, []byte("\n"))
	if len(lines) < 2 {
		return nil, errors.New("full-study result has no rows")
	}
	bufs := map[subspace]*bytes.Buffer{}
	for _, ln := range lines[1:] {
		if len(ln) == 0 {
			continue
		}
		f := bytes.SplitN(ln, []byte(","), 3)
		if len(f) < 3 {
			return nil, fmt.Errorf("full-study result row %q", ln)
		}
		key := subspace{string(f[0]), string(f[1])}
		buf := bufs[key]
		if buf == nil {
			buf = bytes.NewBuffer(append([]byte(nil), lines[0]...))
			bufs[key] = buf
		}
		buf.Write(ln)
	}
	out := make(map[subspace][]byte, len(bufs))
	for k, buf := range bufs {
		out[k] = buf.Bytes()
	}
	return out, nil
}

// serveOp is one client op: a submit and a blocking result fetch.
type serveOp struct {
	fresh          bool
	spec           server.Spec
	submit, result time.Duration
	bytes          int
	err            error
	httpErr        bool // err came from the request, not the body check
}

func (o serveOp) wall() time.Duration { return o.submit + o.result }

// serveClient is the closed-loop client and what it has seen: the
// subspaces it has yet to submit, and the bodies of the campaigns it
// completed, which its hit ops resubmit.
type serveClient struct {
	rng    *stats.RNG
	plan   []subspace
	done   []subspace
	bodies map[subspace][]byte
}

// newServeClient makes the client of one run. It submits the 102
// chip x app subspaces fresh once each, in an order drawn from the
// seed, and its choices between fresh and hit ops follow a fixed
// sequence drawn from the seed.
func newServeClient(seed uint64) *serveClient {
	var all []subspace
	for _, ch := range chip.All() {
		for _, a := range apps.All() {
			all = append(all, subspace{ch.Name, a.Name})
		}
	}
	c := &serveClient{rng: stats.NewRNG(seed*1_000_003 + 1), bodies: map[subspace][]byte{}}
	for _, p := range stats.NewRNG(seed).Perm(len(all)) {
		c.plan = append(c.plan, all[p])
	}
	return c
}

// next picks the client's next op: fresh while it has nothing to
// resubmit, then about one in freshOneIn until its plan runs out.
func (c *serveClient) next() (s subspace, fresh, ok bool) {
	switch {
	case len(c.plan) > 0 && (len(c.done) == 0 || c.rng.Intn(freshOneIn) == 0):
		s, c.plan = c.plan[0], c.plan[1:]
		return s, true, true
	case len(c.done) > 0:
		return c.done[c.rng.Intn(len(c.done))], false, true
	}
	return subspace{}, false, false
}

// runClient runs the client in a closed loop until stop says so,
// checking every body: a fresh op against the matching rows of the
// full-study result, a hit against its earlier fresh body. stop is
// called before each op with the op's index in this call.
func (b *bench) runClient(a *api, expected map[subspace][]byte, c *serveClient, stop func(i int) bool) []serveOp {
	var ops []serveOp
	for i := 0; !stop(i); i++ {
		s, fresh, ok := c.next()
		if !ok {
			break
		}
		op := serveOp{fresh: fresh, spec: s.spec(b.seed)}
		t0 := time.Now()
		id, err := a.submit(op.spec)
		t1 := time.Now()
		var body []byte
		if err == nil {
			body, err = a.result(id)
		}
		op.submit, op.result = t1.Sub(t0), time.Since(t1)
		op.bytes = len(body)
		b.corrupt(i+1, body)
		want := c.bodies[s]
		if fresh {
			want = expected[s]
		}
		switch {
		case err != nil:
			op.err, op.httpErr = err, true
		case !bytes.Equal(body, want):
			op.err = fmt.Errorf("campaign %s/%s: result differs from the full study's rows", s.chip, s.app)
		case fresh:
			c.done = append(c.done, s)
			c.bodies[s] = body
		}
		ops = append(ops, op)
	}
	return ops
}

// daemon is a gpuportd process over its own job directory and trace
// cache.
type daemon struct {
	cmd    *exec.Cmd
	api    *api
	jobdir string
	exited chan struct{}
	stderr bytes.Buffer
}

// bannerWriter receives the daemon's stdout and hands its first line,
// the listen banner, to the starter.
type bannerWriter struct {
	line []byte
	sent bool
	ch   chan string
}

func (w *bannerWriter) Write(p []byte) (int, error) {
	if w.sent {
		return len(p), nil
	}
	w.line = append(w.line, p...)
	if i := bytes.IndexByte(w.line, '\n'); i >= 0 {
		w.sent = true
		w.ch <- string(w.line[:i])
	}
	return len(p), nil
}

// startDaemon boots gpuportd on an ephemeral port and returns once
// /healthz answers.
func (b *bench) startDaemon(dir string) (*daemon, error) {
	d := &daemon{jobdir: filepath.Join(dir, "jobs"), exited: make(chan struct{})}
	for _, p := range []string{d.jobdir, filepath.Join(dir, "cache")} {
		if _, err := os.Stat(p); err == nil {
			return nil, fmt.Errorf("%s: %w", p, errLeftoverState)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	banner := &bannerWriter{ch: make(chan string, 1)}
	d.cmd = exec.Command(filepath.Join(b.bin, "gpuportd"), "-listen", "127.0.0.1:0",
		"-jobdir", d.jobdir, "-trace-cache", filepath.Join(dir, "cache"))
	d.cmd.Dir = dir
	d.cmd.Stdout, d.cmd.Stderr = banner, &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait() // the exit status of a daemon we interrupt carries nothing
		close(d.exited)
	}()
	var line string
	select {
	case line = <-banner.ch:
	case <-d.exited:
		return nil, fmt.Errorf("gpuportd exited before listening: %s", bytes.TrimSpace(d.stderr.Bytes()))
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("gpuportd printed no listen banner within 30 s")
	}
	addr, ok := strings.CutPrefix(line, "gpuportd listening on http://")
	if !ok {
		d.stop()
		return nil, fmt.Errorf("unexpected gpuportd banner %q", line)
	}
	d.api = newAPI(addr)
	if _, err := d.api.do(http.MethodGet, "/healthz", nil); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop interrupts the daemon and waits for it to exit, killing it if
// it does not within 10 s.
func (d *daemon) stop() {
	if d.api != nil {
		d.api.close()
	}
	_ = d.cmd.Process.Signal(os.Interrupt) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill() // fails only if it already exited
		<-d.exited
	}
}

// peakRSSMB reads the daemon's peak resident set from /proc.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// runServe runs the serve-mixed workload against a gpuportd process.
func runServe(b *bench) (*result, error) {
	r := &result{}
	var setup []float64
	var d *daemon
	var full []byte
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		dd, err := b.startDaemon(filepath.Join(b.state, fmt.Sprintf("daemon-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		body, err := dd.api.campaign(server.Spec{Seed: b.seed})
		setup = append(setup, time.Since(start).Seconds())
		if err != nil {
			dd.stop()
			return nil, fmt.Errorf("set-up campaign: %w", err)
		}
		if err := b.check("full-study result", body, full, digestDatasetCSV); err != nil {
			r.problem("set-up round %d: %v", i, err)
		}
		if full == nil {
			full = body
		}
		if i < setupRounds-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	defer d.stop()
	expected, err := subspaceRows(full)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	deadline := start.Add(b.seconds)
	ops := b.runClient(d.api, expected, newServeClient(b.seed), func(i int) bool { return i > 0 && time.Now().After(deadline) })
	window := time.Since(start)
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}

	var all, fresh, hit []float64
	okOps := 0
	for _, op := range ops {
		r.attempted++
		if op.err != nil {
			r.failed++
			fmt.Fprintln(b.log, "perfbench:", op.err)
			continue
		}
		okOps++
		t := ms(op.wall())
		all = append(all, t)
		if op.fresh {
			fresh = append(fresh, t)
		} else {
			hit = append(hit, t)
		}
	}
	if len(hit) == 0 {
		r.problem("no hit op completed")
		hit = all
	}
	addEndToEnd(r, setup, all, fresh, hit, window, okOps, rss, "")
	return r, nil
}
