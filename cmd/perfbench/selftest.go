package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// runSelfTest shows that the benchmark's checks fire: a corrupted op
// output must fail each workload's run with ok_share below 1, and a
// run or daemon started over leftover state must be refused.
func runSelfTest(b *bench, w io.Writer) int {
	failures := 0
	verdict := func(name string, err error) {
		if err != nil {
			failures++
			fmt.Fprintf(w, "selftest %-24s FAIL: %v\n", name, err)
			return
		}
		fmt.Fprintf(w, "selftest %-24s ok\n", name)
	}

	for _, wl := range []string{wlStudyAll, wlCollect, wlServeMixed} {
		c := *b
		c.corruptOp, c.seconds, c.log = 1, time.Second, io.Discard
		res, err := runOnce(&c, wl, false, "")
		verdict("corrupt-output/"+wl, func() error {
			if err != nil {
				return err
			}
			for _, m := range res.metrics {
				if m.name == "ok_share" && m.value >= 1 {
					return fmt.Errorf("ok_share %v with a corrupted output", m.value)
				}
			}
			if res.correct() {
				return errors.New("the run passed with a corrupted output")
			}
			return nil
		}())
	}

	runs := filepath.Join(b.root, ".bench_build", "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		verdict("leftover-state", err)
		return 1
	}
	dir, err := os.MkdirTemp(runs, "leftover-")
	if err != nil {
		verdict("leftover-state", err)
		return 1
	}
	defer os.RemoveAll(dir)
	verdict("leftover-state/run", func() error {
		stale := filepath.Join(dir, "run")
		if err := os.MkdirAll(filepath.Join(stale, "jobs"), 0o755); err != nil {
			return err
		}
		_, err := runOnce(b, wlServeMixed, false, stale)
		if !errors.Is(err, errLeftoverState) {
			return fmt.Errorf("a run over a non-empty state directory was not refused (err: %v)", err)
		}
		return nil
	}())
	verdict("leftover-state/daemon", func() error {
		stale := filepath.Join(dir, "daemon")
		if err := os.MkdirAll(filepath.Join(stale, "cache"), 0o755); err != nil {
			return err
		}
		d, err := b.startDaemon(stale)
		if err == nil {
			d.stop()
		}
		if !errors.Is(err, errLeftoverState) {
			return fmt.Errorf("a daemon over a leftover trace cache was not refused (err: %v)", err)
		}
		return nil
	}())

	if failures > 0 {
		fmt.Fprintf(w, "selftest: %d check(s) failed\n", failures)
		return 1
	}
	fmt.Fprintln(w, "selftest: all checks fired")
	return 0
}
