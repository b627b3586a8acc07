package core

import (
	"bytes"
	"runtime"
	"testing"
)

// runSelfJoinParts runs a full BTO-PK-BRJ self-join at the given host
// parallelism and returns the raw bytes of every committed output part
// file.
func runSelfJoinParts(t *testing.T, par int) map[string][]byte {
	t.Helper()
	fs := newTestFS(t)
	lines := makeLines(99, 45, 0)
	writeInput(t, fs, "in", lines)
	res, err := SelfJoin(Config{
		FS: fs, Work: "w",
		Kernel:      PK,
		NumReducers: 3,
		Parallelism: par,
	}, "in")
	if err != nil {
		t.Fatal(err)
	}
	parts := map[string][]byte{}
	for _, name := range fs.List(res.Output + "/") {
		b, err := fs.ReadAll(name)
		if err != nil {
			t.Fatal(err)
		}
		parts[name] = b
	}
	if len(parts) == 0 {
		t.Fatal("join produced no part files")
	}
	return parts
}

// TestPipelineParallelismByteIdentical pins the contract the GOMAXPROCS
// default relies on: Config.Parallelism changes wall-clock only — the
// full three-stage pipeline emits byte-identical part files at
// parallelism 1 and N.
func TestPipelineParallelismByteIdentical(t *testing.T) {
	want := runSelfJoinParts(t, 1)
	got := runSelfJoinParts(t, 4)
	if len(got) != len(want) {
		t.Fatalf("parallel run wrote %d part files, serial %d", len(got), len(want))
	}
	for name, b := range want {
		if !bytes.Equal(got[name], b) {
			t.Fatalf("part file %s differs between parallelism 1 and 4", name)
		}
	}
}

// TestParallelismDefaultsToGOMAXPROCS pins the config default.
func TestParallelismDefaultsToGOMAXPROCS(t *testing.T) {
	c := Config{FS: newTestFS(t), Work: "w"}
	if err := c.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	if c.Parallelism != runtime.GOMAXPROCS(0) {
		t.Fatalf("default Parallelism = %d, want runtime.GOMAXPROCS(0) = %d",
			c.Parallelism, runtime.GOMAXPROCS(0))
	}
}
