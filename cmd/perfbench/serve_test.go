package main

import (
	"io"
	"testing"

	"gpuport/internal/server"
)

// TestClientChecksEveryBody drives the client against an in-process
// server: every fresh body must match the full study's rows, every hit
// its earlier fresh body, and a corrupted body must fail.
func TestClientChecksEveryBody(t *testing.T) {
	const seed = 3
	srv, err := startInProcessServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	full, err := srv.api.campaign(server.Spec{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	expected, err := subspaceRows(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(expected) != 102 {
		t.Fatalf("%d chip x app slices in the full study, want 102", len(expected))
	}

	b := &bench{seed: seed, log: io.Discard}
	client := newServeClient(seed)
	ops := b.runClient(srv.api, expected, client, func(i int) bool { return i >= 12 })
	fresh, hit := 0, 0
	for _, op := range ops {
		if op.err != nil {
			t.Errorf("op %+v: %v", op.spec, op.err)
		}
		if op.fresh {
			fresh++
		} else {
			hit++
		}
	}
	if len(ops) != 12 || fresh < 2 || hit == 0 {
		t.Errorf("%d ops (%d fresh, %d hit), want 12 with both classes", len(ops), fresh, hit)
	}

	b.corruptOp = 1
	ops = b.runClient(srv.api, expected, client, func(i int) bool { return i >= 1 })
	failed := 0
	for _, op := range ops {
		if op.err != nil {
			failed++
		}
	}
	if failed != 1 {
		t.Errorf("%d of %d ops failed with one corrupted body, want 1", failed, len(ops))
	}
}
