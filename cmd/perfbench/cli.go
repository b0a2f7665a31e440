package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// defaultSeed is the seed whose outputs have committed digests.
const defaultSeed = 42

// Digests of the outputs at the default seed. The study keeps every
// table, figure and dataset CSV byte-identical for a given seed, so
// these change only if that guarantee is broken.
const (
	digestStudyStdout   = "b063fc9032e29dfc9f5c6320eebf121657b44996c0c8ed9b5082d5a58eb1bd2c" // 12,641 bytes
	digestCollectStdout = "b3231850dc10374468671b8e97b6cd452797d11ac1402d46d253f38c22bcdc01" // 66 bytes
	digestDatasetCSV    = "f45bfaabfbc36df6b246ff02663cf24ec2e9852e20545b6fd779fc088eb74d4e" // 2,864,761 bytes
)

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// cliOutput is what one gpuport process produced.
type cliOutput struct {
	stdout []byte
	csv    []byte // the -out file; collect only
	wall   time.Duration
	rssMB  float64
}

// cliOp runs one op of a CLI workload as a new gpuport process. Its
// -out path, when it has one, is new and removed once read.
func (b *bench) cliOp(workload, tag string) (*cliOutput, error) {
	args := []string{"-seed", strconv.FormatUint(b.seed, 10)}
	var out string
	if workload == wlCollect {
		dir := filepath.Join(b.state, tag)
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		out = filepath.Join(dir, "d.csv")
		args = append(args, "-out", out, "dataset")
	} else {
		args = append(args, "all")
	}
	cmd := exec.Command(filepath.Join(b.bin, "gpuport"), args...)
	cmd.Dir = b.state
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("gpuport %v: %w: %s", args, err, bytes.TrimSpace(stderr.Bytes()))
	}
	res := &cliOutput{stdout: stdout.Bytes(), wall: wall}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if out != "" {
		if res.csv, err = os.ReadFile(out); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// check decides whether an output is right: at the default seed its
// sha256 must be digest; at any other seed it must equal ref, the
// run's first output of its kind (nil for that first output itself).
func (b *bench) check(what string, out, ref []byte, digest string) error {
	if b.seed == defaultSeed {
		if got := sha(out); got != digest {
			return fmt.Errorf("%s sha256 %s, want %s", what, got, digest)
		}
		return nil
	}
	if ref != nil && !bytes.Equal(out, ref) {
		return fmt.Errorf("%s differs from the run's first", what)
	}
	return nil
}

// checkCLI checks a CLI op's stdout, and the CSV on collect, against
// the first warm-up op (ref, nil for that op itself).
func (b *bench) checkCLI(workload string, o, ref *cliOutput) error {
	if ref == nil {
		ref = &cliOutput{}
	}
	if workload == wlStudyAll {
		return b.check("stdout", o.stdout, ref.stdout, digestStudyStdout)
	}
	if err := b.check("stdout", o.stdout, ref.stdout, digestCollectStdout); err != nil {
		return err
	}
	return b.check("dataset CSV", o.csv, ref.csv, digestDatasetCSV)
}

// runCLI runs the study-all or collect workload: one client in a
// closed loop, each op a new gpuport process.
func runCLI(b *bench, workload string) (*result, error) {
	r := &result{}
	var ref *cliOutput
	var setup []float64
	for i := 0; i < setupRounds; i++ {
		o, err := b.cliOp(workload, fmt.Sprintf("warm-%d", i))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, o.wall.Seconds())
		if err := b.checkCLI(workload, o, ref); err != nil {
			r.problem("set-up op %d: %v", i, err)
		}
		if ref == nil {
			ref = o
		}
	}

	var walls []float64
	var rss float64
	okOps := 0
	start := time.Now()
	deadline := start.Add(b.seconds)
	for n := 1; n == 1 || time.Now().Before(deadline); n++ {
		r.attempted++
		o, err := b.cliOp(workload, fmt.Sprintf("op-%d", n))
		if err != nil {
			r.failed++
			fmt.Fprintf(b.log, "perfbench: op %d: %v\n", n, err)
			continue
		}
		walls = append(walls, ms(o.wall))
		rss = max(rss, o.rssMB)
		b.corrupt(n, o.stdout)
		if err := b.checkCLI(workload, o, ref); err != nil {
			r.failed++
			fmt.Fprintf(b.log, "perfbench: op %d: %v\n", n, err)
			continue
		}
		okOps++
	}
	window := time.Since(start)
	addEndToEnd(r, setup, walls, walls, nil, window, okOps, rss,
		"; every CLI op is a new process with nothing kept between ops, so all ops are fresh")
	return r, nil
}
