package main

import (
	"os"
	"strings"
	"testing"

	"fuzzyjoin/internal/distrib"
)

// TestMain lets dist sweeps fork this test binary as worker processes.
func TestMain(m *testing.M) {
	distrib.MaybeWorker()
	os.Exit(m.Run())
}

// TestRunSmallSweep drives the CLI end to end on a tiny matrix subset.
func TestRunSmallSweep(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{
		"-seed", "3", "-records", "24",
		"-combo", "BTO-PK-BRJ", "-exec", "plain",
		"-invariants=false",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Fatalf("no PASS line in output: %s", out.String())
	}
	if !strings.Contains(out.String(), "sweep: 4 variants") { // 2 joins × 2 routings
		t.Fatalf("unexpected variant count: %s", out.String())
	}
}

// TestRunDistSweep drives the CLI's distributed backend: a dist-only
// sweep on forked worker processes with the chaos harness armed.
func TestRunDistSweep(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{
		"-seed", "3", "-records", "24",
		"-combo", "BTO-PK-BRJ", "-routing", "individual", "-exec", "dist",
		"-workers", "2", "-chaos", "0.4",
		"-invariants=false", "-minimize=false",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Fatalf("no PASS line in output: %s", out.String())
	}
	if !strings.Contains(out.String(), "dist: 2 worker processes forked") {
		t.Fatalf("no worker session line in output: %s", out.String())
	}
}

func TestRunInvariantsOnly(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-seed", "4", "-records", "24", "-sweep=false"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "invariants: 4 checked, 0 failed") {
		t.Fatalf("unexpected output: %s", out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-blocks", "mpa"},                    // typo'd filter value
		{"-sweep=false", "-invariants=false"}, // nothing to do
		{"stray-arg"},                         // positional args
		{"-no-such-flag"},                     // unknown flag
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) exit %d, want 2 (stderr: %s)", args, code, errOut.String())
		}
	}
}
