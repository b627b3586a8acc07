package fuzzyjoin_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"fuzzyjoin"
)

// cancelInjector cancels the join's context from inside a task attempt,
// simulating an operator killing a long join mid-flight.
type cancelInjector struct{ cancel context.CancelFunc }

func (c cancelInjector) AttemptFault(fuzzyjoin.TaskRef) error {
	c.cancel()
	return nil
}

func errorsIsCanceled(err error) bool {
	return errors.Is(err, fuzzyjoin.ErrCanceled)
}

func pubs() []fuzzyjoin.Record {
	mk := func(rid uint64, title, authors string) fuzzyjoin.Record {
		return fuzzyjoin.Record{RID: rid, Fields: []string{title, authors, "rest"}}
	}
	return []fuzzyjoin.Record{
		mk(1, "Efficient Parallel Set-Similarity Joins Using MapReduce", "Vernica Carey Li"),
		mk(2, "Efficient Parallel Set Similarity Joins Using MapReduce", "Vernica Carey Li"),
		mk(3, "A Comparison of Approaches to Large-Scale Data Analysis", "Pavlo Paulson Rasin"),
		mk(4, "Comparison of Approaches to Large-Scale Data Analysis", "Pavlo Paulson Rasin"),
		mk(5, "Completely Unrelated Quantum Chromodynamics Lattice Study", "Nobody Here"),
	}
}

func TestJoinRecords(t *testing.T) {
	res, err := fuzzyjoin.Join(context.Background(), fuzzyjoin.JoinSpec{Records: pubs()})
	if err != nil {
		t.Fatal(err)
	}
	pairs := res.Joined
	if len(pairs) != 2 {
		t.Fatalf("pairs = %d, want 2 (the two near-duplicate clusters): %v", len(pairs), pairs)
	}
	for _, p := range pairs {
		if p.Sim < 0.8 {
			t.Fatalf("pair below threshold: %+v", p)
		}
		if p.Left.RID >= p.Right.RID {
			t.Fatalf("self-join pair not ordered: %+v", p)
		}
	}
}

func TestJoinRecordsFastCombo(t *testing.T) {
	cfg := fuzzyjoin.Config{Kernel: fuzzyjoin.PK, RecordJoin: fuzzyjoin.OPRJ, TokenOrder: fuzzyjoin.OPTO}
	res, err := fuzzyjoin.Join(context.Background(),
		fuzzyjoin.JoinSpec{Config: cfg, Records: pubs()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Joined) != 2 {
		t.Fatalf("pairs = %d, want 2", len(res.Joined))
	}
}

func TestJoinRecordsRS(t *testing.T) {
	r := pubs()[:3]
	s := pubs()[2:]
	for i := range s {
		s[i].RID += 100
	}
	res, err := fuzzyjoin.Join(context.Background(),
		fuzzyjoin.JoinSpec{Records: r, RecordsS: s})
	if err != nil {
		t.Fatal(err)
	}
	pairs := res.Joined
	// R record 3 ("A Comparison of...") matches S records 103 and 104.
	if len(pairs) != 2 {
		t.Fatalf("pairs = %d, want 2: %v", len(pairs), pairs)
	}
	for _, p := range pairs {
		if p.Left.RID != 3 {
			t.Fatalf("left side is not the R record: %+v", p)
		}
	}
}

func TestJoinFileMode(t *testing.T) {
	fs := fuzzyjoin.NewFS(4)
	if err := fuzzyjoin.WriteRecords(fs, "pubs", pubs()); err != nil {
		t.Fatal(err)
	}
	res, err := fuzzyjoin.Join(context.Background(), fuzzyjoin.JoinSpec{
		Config: fuzzyjoin.Config{FS: fs, Work: "job1"},
		Input:  "pubs",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Joined != nil {
		t.Fatal("file-mode join filled Result.Joined; output belongs in the DFS part files")
	}
	pairs, err := fuzzyjoin.ReadJoinedPairs(fs, res.Output)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 || res.Pairs != 2 {
		t.Fatalf("pairs = %d (result says %d), want 2", len(pairs), res.Pairs)
	}
	if res.TokenOrderFile == "" || res.RIDPairs == "" {
		t.Fatalf("result metadata incomplete: %+v", res)
	}

	// InputS makes the file-mode join R-S.
	if err := fuzzyjoin.WriteRecords(fs, "s", pubs()[2:]); err != nil {
		t.Fatal(err)
	}
	rs, err := fuzzyjoin.Join(context.Background(), fuzzyjoin.JoinSpec{
		Config: fuzzyjoin.Config{FS: fs, Work: "job2"},
		Input:  "pubs",
		InputS: "s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Pairs == 0 {
		t.Fatal("R-S file-mode join found no pairs")
	}
}

// TestJoinSpecValidation: Join and Plan reject each malformed spec with
// the same message.
func TestJoinSpecValidation(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		spec fuzzyjoin.JoinSpec
		want string
	}{
		{"empty", fuzzyjoin.JoinSpec{}, "set Input or Records"},
		{"mixed modes", fuzzyjoin.JoinSpec{Input: "r", Records: pubs()}, "use one mode"},
		{"S without R file", fuzzyjoin.JoinSpec{InputS: "s"}, "without Input"},
		{"S without R records", fuzzyjoin.JoinSpec{RecordsS: pubs()}, "without Records"},
		{"managed Work", fuzzyjoin.JoinSpec{
			Config:  fuzzyjoin.Config{Work: "x"},
			Records: pubs(),
		}, "leave them unset"},
		{"managed FS", fuzzyjoin.JoinSpec{
			Config:  fuzzyjoin.Config{FS: fuzzyjoin.NewFS(1)},
			Records: pubs(),
		}, "leave them unset"},
	}
	for _, tc := range cases {
		_, joinErr := fuzzyjoin.Join(ctx, tc.spec)
		_, planErr := fuzzyjoin.Plan(ctx, tc.spec)
		for entry, err := range map[string]error{"Join": joinErr, "Plan": planErr} {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: %s err = %v, want mention of %q", tc.name, entry, err, tc.want)
			}
		}
		if joinErr != nil && planErr != nil && joinErr.Error() != planErr.Error() {
			t.Errorf("%s: Join says %q, Plan says %q", tc.name, joinErr, planErr)
		}
	}
}

// TestJoinCancel kills an in-memory join mid-flight: the injected fault
// cancels the context from inside a map task, and the pipeline must
// surface ErrCanceled instead of burning its retry budget.
func TestJoinCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := fuzzyjoin.Join(ctx, fuzzyjoin.JoinSpec{
		Config: fuzzyjoin.Config{
			Retry:         fuzzyjoin.RetryPolicy{MaxAttempts: 5},
			FaultInjector: cancelInjector{cancel: cancel},
		},
		Records: pubs(),
	})
	if !errorsIsCanceled(err) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestJoinPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fuzzyjoin.Join(ctx, fuzzyjoin.JoinSpec{Records: pubs()}); !errorsIsCanceled(err) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}
