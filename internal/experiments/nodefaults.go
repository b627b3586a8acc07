package experiments

import (
	"fmt"
	"time"

	"fuzzyjoin/internal/cluster"
	"fuzzyjoin/internal/core"
	"fuzzyjoin/internal/datagen"
	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
)

// ---- Node failures: replication factor × failure time × speculation -----

// NodeFaultRow is one cell of the node-failure sweep.
type NodeFaultRow struct {
	FailAt      time.Duration // when node 0 dies (absolute simulated time)
	Replication int
	Speculative bool
	Makespan    time.Duration
	Restarts    int
	Recomputed  int // map tasks re-executed for lost outputs
	Killed      int // attempts cut down mid-run
	Backups     int // speculative backups launched
	Wins        int // backups that committed
	MaxCommits  int // must be 1: the single-winner invariant
}

// NodeFaultAblationResult reports the node-level fault-tolerance sweep:
// the BTO-PK-BRJ self-join pipeline is executed once (fault-free, on a
// replication-2 DFS so every map task records two replica locations),
// and its recorded task costs are then scheduled under node-failure
// models. The sweep reproduces the Hadoop behaviour the paper's
// reliability argument rests on: with replication 1 a node death
// destroys the only copy of some input blocks and forces a full-job
// restart, while replication ≥ 2 degrades gracefully — killed attempts
// retry on survivors and lost map outputs are recomputed. Speculative
// execution shortens the stall between a death and its detection by
// racing backup attempts, and never commits more than one attempt per
// task.
type NodeFaultAblationResult struct {
	Baseline time.Duration // fault-free simulated flow makespan
	Rows     []NodeFaultRow
}

// NodeFaultAblation sweeps node-0 failure times × replication {1, 2} ×
// speculation {off, on} for DBLP×5 at 10 nodes.
func (s *Suite) NodeFaultAblation() (*NodeFaultAblationResult, error) {
	const factor, nodes, replication = 5, 10, 2
	fs := dfs.New(dfs.Options{BlockSize: s.w.p.BlockSize, Nodes: nodes, Replication: replication})
	if err := mapreduce.WriteTextFile(fs, "dblp", datagen.Lines(s.w.dblpTimes(factor))); err != nil {
		return nil, err
	}
	cfg := s.w.baseCfg(fs, nodes)
	cfg.Work = "nf"
	cfg.Kernel, cfg.RecordJoin = core.PK, core.BRJ
	r, err := core.SelfJoin(cfg, "dblp")
	if err != nil {
		return nil, err
	}
	jobs := jobCosts(r.AllJobs())
	sp := spec(nodes)

	res := &NodeFaultAblationResult{
		Baseline: sp.SimulateFlow(jobs, cluster.FailureModel{}).Makespan,
	}
	// Hadoop's heartbeat timeout dwarfs individual task costs; scale it
	// the same way so speculation has a real stall to beat.
	detect := res.Baseline / 10
	for _, frac := range []int64{25, 50, 75} {
		failAt := time.Duration(int64(res.Baseline) * frac / 100)
		for _, repl := range []int{1, replication} {
			for _, specOn := range []bool{false, true} {
				fm := cluster.FailureModel{
					Failures:      []cluster.NodeFailureEvent{{Node: 0, At: failAt}},
					Replication:   repl,
					Speculative:   specOn,
					DetectTimeout: detect,
				}
				sr := sp.SimulateFlow(jobs, fm)
				res.Rows = append(res.Rows, NodeFaultRow{
					FailAt:      failAt,
					Replication: repl,
					Speculative: specOn,
					Makespan:    sr.Makespan,
					Restarts:    sr.Restarts,
					Recomputed:  sr.RecomputedMaps,
					Killed:      sr.KilledAttempts,
					Backups:     sr.SpeculativeLaunched,
					Wins:        sr.SpeculativeWins,
					MaxCommits:  sr.MaxCommits,
				})
			}
		}
	}
	return res, nil
}

// Render prints the sweep.
func (r *NodeFaultAblationResult) Render() string {
	header := []string{"fail at(s)", "repl", "spec", "makespan(s)", "restarts", "recomputed", "killed", "backups", "wins"}
	var rows [][]string
	onOff := map[bool]string{false: "off", true: "on"}
	singleWinner := true
	restartsAtR1, gracefulAtR2 := false, true
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.3f", row.FailAt.Seconds()),
			fmt.Sprintf("%d", row.Replication),
			onOff[row.Speculative],
			seconds(row.Makespan, false),
			fmt.Sprintf("%d", row.Restarts),
			fmt.Sprintf("%d", row.Recomputed),
			fmt.Sprintf("%d", row.Killed),
			fmt.Sprintf("%d", row.Backups),
			fmt.Sprintf("%d", row.Wins),
		})
		if row.MaxCommits > 1 {
			singleWinner = false
		}
		if row.Replication == 1 && row.Restarts > 0 {
			restartsAtR1 = true
		}
		if row.Replication >= 2 && row.Restarts > 0 {
			gracefulAtR2 = false
		}
	}
	note := fmt.Sprintf("fault-free makespan %s s; ", seconds(r.Baseline, false))
	if restartsAtR1 && gracefulAtR2 {
		note += "replication 1 restarts the job, replication 2 degrades gracefully"
	} else {
		note += "WARNING: restart/recovery split did not match the expected replication behaviour"
	}
	if singleWinner {
		note += "; speculation committed exactly one winner per task"
	} else {
		note += "; WARNING: a task committed more than once under speculation"
	}
	return "Node-failure ablation: BTO-PK-BRJ self-join, DBLP x5, 10 nodes, node 0 dies at t\n" +
		table(header, rows) + note + "\n"
}
