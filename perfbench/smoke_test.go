package main

import (
	"context"
	"testing"
)

// TestSmoke runs the smoke mode: one round of every workload, untraced
// and traced, checking every output and every metric of the benchmark
// definition.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	cfg := runConfig{out: t.TempDir()}
	if err := smokeMain(context.Background(), cfg, "../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
}
