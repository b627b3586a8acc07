package distrib

import (
	"fmt"
	"net"
	"net/rpc"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fuzzyjoin/internal/backoff"
	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
)

// MaybeWorker turns the current process into a worker when EnvCoord is
// set and never returns in that case (the process exits when the
// coordinator goes away). Call it first thing in main() — and in the
// TestMain of any test binary that starts a Session, because forked
// workers re-exec the current executable.
func MaybeWorker() {
	addr := os.Getenv(EnvCoord)
	if addr == "" {
		return
	}
	if err := WorkerMain(addr); err != nil {
		fmt.Fprintln(os.Stderr, "ssjworker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// WorkerMain runs the worker loop against the given coordinator: dial,
// serve the Worker RPC service, register, then heartbeat until the
// coordinator disappears or declares this worker dead.
func WorkerMain(coordAddr string) error {
	slots := 1
	if s := os.Getenv(EnvSlots); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			slots = n
		}
	}
	index := 0
	if s := os.Getenv(EnvIndex); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			index = n
		}
	}
	// The parent listens before forking, but retry the dial anyway with
	// the shared deterministic-backoff policy.
	pol := backoff.Policy{Base: 5 * time.Millisecond, Factor: 2, Max: 200 * time.Millisecond}
	var coord *rpc.Client
	var err error
	for attempt := 1; attempt <= 6; attempt++ {
		if d := pol.Delay(backoff.Key{Scope: "worker-dial", Sub: coordAddr, ID: index}, attempt); d > 0 {
			time.Sleep(d)
		}
		coord, err = rpc.Dial("tcp", coordAddr)
		if err == nil {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("distrib: worker dial coordinator %s: %w", coordAddr, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("distrib: worker listen: %w", err)
	}
	w := &workerRPC{
		coord:   coord,
		slots:   make(chan struct{}, slots),
		index:   index,
		side:    map[sideKey][]byte{},
		buffers: mapreduce.NewBuffers(slots),
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", w); err != nil {
		return err
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	var reg RegisterReply
	if err := coord.Call("Coordinator.Register", RegisterArgs{
		Addr: ln.Addr().String(), PID: os.Getpid(), Index: index,
	}, &reg); err != nil {
		return fmt.Errorf("distrib: worker register: %w", err)
	}
	hb := time.Duration(reg.HeartbeatNanos)
	if hb <= 0 {
		hb = 250 * time.Millisecond
	}
	for {
		time.Sleep(hb)
		if err := coord.Call("Coordinator.Heartbeat", HeartbeatArgs{ID: reg.ID}, &Ack{}); err != nil {
			// Coordinator gone, or we were declared dead (zombie): exit.
			// Our writes are fenced; our tasks re-dispatch elsewhere.
			return nil
		}
	}
}

type sideKey struct {
	fs   int64
	name string
}

// workerRPC executes dispatched task attempts. It is stateless between
// tasks apart from the side-file cache (side files are write-once) and
// the map output buffers its map tasks reuse, one per slot at most.
type workerRPC struct {
	coord   *rpc.Client
	slots   chan struct{}
	index   int
	done    int64
	buffers *mapreduce.Buffers

	mu   sync.Mutex
	side map[sideKey][]byte
}

// RunMap executes one map attempt and returns its segments, counters,
// and metrics in one reply.
func (w *workerRPC) RunMap(args RunMapArgs, reply *RunMapReply) error {
	w.slots <- struct{}{}
	defer func() { <-w.slots }()
	job, err := w.jobFor(args.Spec, args.FS, args.Lease)
	if err != nil {
		return err
	}
	out, err := mapreduce.ExecMapAttempt(&job, args.TaskID, args.Attempt, args.Split)
	if err != nil {
		return err
	}
	w.maybeExit(args.Spec.Conf)
	reply.Parts, reply.Counters, reply.Metrics = out.Parts, out.Counters, out.Metrics
	return nil
}

// RunReduce executes one reduce attempt, writing the part file under
// the coordinator-chosen temporary name through the FS service.
func (w *workerRPC) RunReduce(args RunReduceArgs, reply *RunReduceReply) error {
	w.slots <- struct{}{}
	defer func() { <-w.slots }()
	job, err := w.jobFor(args.Spec, args.FS, args.Lease)
	if err != nil {
		return err
	}
	out, err := mapreduce.ExecReduceAttempt(&job, args.TaskID, args.Attempt, args.Column, args.Temp)
	if err != nil {
		return err
	}
	w.maybeExit(args.Spec.Conf)
	reply.Temp, reply.Counters, reply.Metrics = out.Temp, out.Counters, out.Metrics
	return nil
}

func (w *workerRPC) jobFor(spec mapreduce.JobSpec, fs, lease int64) (mapreduce.Job, error) {
	side := make(map[string]bool, len(spec.SideFiles))
	for _, name := range spec.SideFiles {
		side[name] = true
	}
	st := &rpcStorage{w: w, fs: fs, lease: lease, side: side}
	job, err := mapreduce.JobFromSpec(spec, st)
	job.Buffers = w.buffers
	return job, err
}

// maybeExit implements the Conf["distrib.exit-after"]=N crash hook:
// worker index 0 exits hard after completing its Nth task body, BEFORE
// replying — the window between doing the work and reporting it. The
// double-count regression test uses it to prove counters from the lost
// reply are never merged.
func (w *workerRPC) maybeExit(conf map[string]string) {
	n, err := strconv.Atoi(conf["distrib.exit-after"])
	if err != nil || n <= 0 || w.index != 0 {
		return
	}
	if atomic.AddInt64(&w.done, 1) >= int64(n) {
		os.Exit(1)
	}
}

// rpcStorage implements dfs.Storage against the coordinator's FS
// service, scoped to one (fs, lease) pair. Reads are unfenced; writes
// carry the lease and are fenced server-side.
type rpcStorage struct {
	w     *workerRPC
	fs    int64
	lease int64
	side  map[string]bool
}

func (s *rpcStorage) call(method string, args, reply any) error {
	return s.w.coord.Call("Coordinator."+method, args, reply)
}

// Splits implements dfs.Storage.
func (s *rpcStorage) Splits(name string) ([]dfs.Split, error) {
	var r SplitsReply
	if err := s.call("Splits", SplitsArgs{FS: s.fs, Name: name}, &r); err != nil {
		return nil, err
	}
	return r.Splits, nil
}

// Block implements dfs.Storage.
func (s *rpcStorage) Block(name string, idx int) ([]byte, error) {
	var r BytesReply
	if err := s.call("Block", BlockArgs{FS: s.fs, Name: name, Index: idx}, &r); err != nil {
		return nil, err
	}
	return r.Data, nil
}

// ReadAll implements dfs.Storage, caching side files per worker: they
// are write-once (token orders, RID-pair lists) and re-fetched by every
// task otherwise.
func (s *rpcStorage) ReadAll(name string) ([]byte, error) {
	if s.side[name] {
		s.w.mu.Lock()
		data, ok := s.w.side[sideKey{s.fs, name}]
		s.w.mu.Unlock()
		if ok {
			return data, nil
		}
	}
	var r BytesReply
	if err := s.call("ReadAll", NameArgs{FS: s.fs, Name: name}, &r); err != nil {
		return nil, err
	}
	if s.side[name] {
		s.w.mu.Lock()
		s.w.side[sideKey{s.fs, name}] = r.Data
		s.w.mu.Unlock()
	}
	return r.Data, nil
}

// Create implements dfs.Storage; writes buffer locally and flush in
// batches.
func (s *rpcStorage) Create(name string) (dfs.RecordWriter, error) {
	var r CreateReply
	if err := s.call("Create", CreateArgs{FS: s.fs, Lease: s.lease, Name: name}, &r); err != nil {
		return nil, err
	}
	return &rpcWriter{s: s, handle: r.Handle}, nil
}

// Rename implements dfs.Storage.
func (s *rpcStorage) Rename(oldName, newName string) error {
	return s.call("Rename", RenameArgs{FS: s.fs, Lease: s.lease, Old: oldName, New: newName}, &Ack{})
}

// Remove implements dfs.Storage.
func (s *rpcStorage) Remove(name string) error {
	return s.call("Remove", RemoveArgs{FS: s.fs, Lease: s.lease, Name: name}, &Ack{})
}

// Exists implements dfs.Storage.
func (s *rpcStorage) Exists(name string) bool {
	var r BoolReply
	if err := s.call("Exists", NameArgs{FS: s.fs, Name: name}, &r); err != nil {
		return false
	}
	return r.OK
}

// List implements dfs.Storage.
func (s *rpcStorage) List(prefix string) []string {
	var r ListReply
	if err := s.call("List", NameArgs{FS: s.fs, Name: prefix}, &r); err != nil {
		return nil
	}
	return r.Names
}

var _ dfs.Storage = (*rpcStorage)(nil)

// writerFlushBytes is the append-batch threshold: small enough to bound
// worker memory, large enough to keep record appends off the RPC round
// trip.
const writerFlushBytes = 256 << 10

type rpcWriter struct {
	s      *rpcStorage
	handle int64
	recs   [][]byte
	bytes  int
}

// Append implements dfs.RecordWriter.
func (w *rpcWriter) Append(record []byte) error {
	w.recs = append(w.recs, append([]byte(nil), record...))
	w.bytes += len(record)
	if w.bytes >= writerFlushBytes {
		return w.flush()
	}
	return nil
}

func (w *rpcWriter) flush() error {
	if len(w.recs) == 0 {
		return nil
	}
	args := AppendArgs{Handle: w.handle, Records: w.recs}
	w.recs = nil
	w.bytes = 0
	return w.s.call("Append", args, &Ack{})
}

// Close implements dfs.RecordWriter.
func (w *rpcWriter) Close() error {
	if err := w.flush(); err != nil {
		return err
	}
	return w.s.call("CloseWriter", CloseArgs{Handle: w.handle}, &Ack{})
}
