// Package distrib is the distributed execution backend: a coordinator
// that dispatches map/reduce task attempts to real worker processes
// over net/rpc. The coordinator owns the DFS, the retry policy, and the
// single-winner commit. Workers read splits and write part files
// through the coordinator's FS service, keep the blocks they read, and
// keep their map attempts' output: a reducing worker fetches segments
// from the peers that hold them. Crash recovery is re-dispatch: a
// worker that dies mid-task (heartbeat loss or broken connection) has
// its lease revoked — its partial writes are fenced out and removed —
// and the attempt runs again elsewhere; map outputs it held are
// recomputed before the next reduce dispatch needs them. Join output is
// byte-identical to in-process execution even under SIGKILL chaos.
package distrib

import (
	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
)

// Environment variables wiring a forked worker process to its
// coordinator. MaybeWorker reads them at process start.
const (
	// EnvCoord holds the coordinator's RPC address; its presence turns
	// the process into a worker.
	EnvCoord = "SSJ_DISTRIB_COORD"
	// EnvIndex is the worker's fork index (0-based), which spreads the
	// workers' dial retries.
	EnvIndex = "SSJ_WORKER_INDEX"
	// EnvSlots bounds concurrent task executions per worker (default 1).
	EnvSlots = "SSJ_WORKER_SLOTS"
)

// ---- worker → coordinator ------------------------------------------------

// RegisterArgs announces a freshly started worker: where to dial it for
// task dispatch and which PID to SIGKILL in chaos runs.
type RegisterArgs struct {
	Addr string
	PID  int
}

// RegisterReply assigns the worker its ID and the heartbeat interval it
// must keep.
type RegisterReply struct {
	ID             int
	HeartbeatNanos int64
}

// Ack is the empty reply of fire-and-forget calls.
type Ack struct{}

// FileArgs names a file of the FS an attempt's lease was granted on:
// Block reads one of its blocks, ReadAll all of it, and Create opens it
// for writing and returns a handle (an int64) whose every write is
// fenced on the lease staying granted.
type FileArgs struct {
	Lease int64
	Name  string
	Block int
}

// AppendArgs appends a batch of records through a write handle: the
// records packed back to back in Data, their lengths in Lens. Workers
// fill a batch locally and keep one in flight while the next fills.
type AppendArgs struct {
	Handle int64
	Data   []byte
	Lens   []uint32
}

// ---- coordinator → worker ------------------------------------------------

// TaskArgs dispatches one task attempt: the serializable job, the lease
// scoping the worker's FS access, and the identities of the job's side
// files (Split.FileID), which key the worker's cache. A map attempt
// names its split; a reduce attempt names the holders of the committed
// map outputs in map-task order and the coordinator-chosen temporary
// part name (unique per dispatch, so re-dispatched attempts never
// collide).
type TaskArgs struct {
	Lease   int64
	Spec    mapreduce.JobSpec
	Side    map[string]uint64
	TaskID  int
	Attempt int
	Split   dfs.Split
	Maps    []Holder
	Temp    string
}

// TaskReply returns an attempt's counters and metrics, and a reduce
// attempt's temp part file, which the coordinator's commit renames into
// place (single-winner). A map attempt's segments stay on the worker,
// under the attempt's lease, until the job ends.
type TaskReply struct {
	Temp     string
	Counters map[string]int64
	Metrics  mapreduce.TaskMetrics
}

// Holder names where one committed map output lives: the worker and
// the lease it ran under.
type Holder struct {
	Worker int
	Addr   string
	Lease  int64
}

// ---- worker → worker ----------------------------------------------------

// FetchArgs asks a holder for reducer Part's segment of each map output
// held under Leases; the reply ([][]byte) has them in the same order.
type FetchArgs struct {
	Leases []int64
	Part   int
}
