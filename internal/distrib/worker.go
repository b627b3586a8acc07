package distrib

import (
	"errors"
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
	slots, _ := strconv.Atoi(os.Getenv(EnvSlots))
	slots = max(slots, 1)
	index, _ := strconv.Atoi(os.Getenv(EnvIndex))
	// The parent listens before forking, but retry the dial anyway with
	// the shared deterministic-backoff policy.
	stats := &rpcStats{}
	coord, err := dialRetry(coordAddr, stats, backoff.Key{Scope: "worker-dial", Sub: coordAddr, ID: index})
	if err != nil {
		return fmt.Errorf("distrib: worker dial coordinator %s: %w", coordAddr, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("distrib: worker listen: %w", err)
	}
	w := &workerRPC{
		coord:   coord,
		stats:   stats,
		slots:   make(chan struct{}, slots),
		buffers: mapreduce.NewBuffers(slots),
		cache:   &blockCache{},
		outputs: map[int64][][]byte{},
		peers:   map[string]*client{},
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", w); err != nil {
		return err
	}
	var reg RegisterReply
	if err := coord.call("Coordinator.Register", RegisterArgs{
		Addr: ln.Addr().String(), PID: os.Getpid(),
	}, &reg); err != nil {
		return fmt.Errorf("distrib: worker register: %w", err)
	}
	// Serve only once the ID is known: a dispatch that dials in between
	// waits in the listener's backlog.
	w.id = reg.ID
	go serve(ln, srv)
	hb := time.Duration(reg.HeartbeatNanos)
	if hb <= 0 {
		hb = 250 * time.Millisecond
	}
	for {
		time.Sleep(hb)
		if err := coord.call("Coordinator.Heartbeat", reg.ID, &Ack{}); err != nil {
			// Coordinator gone, or we were declared dead (zombie): exit.
			// Our writes are fenced; our tasks re-dispatch elsewhere.
			return nil
		}
	}
}

// workerRPC executes dispatched task attempts. Between tasks it keeps
// the blocks and side files it read (cache) and its map attempts'
// segments until their job ends (outputs, by lease).
type workerRPC struct {
	coord   *client
	stats   *rpcStats
	slots   chan struct{}
	id      int
	done    int64
	buffers *mapreduce.Buffers
	cache   *blockCache

	mu      sync.Mutex
	outputs map[int64][][]byte
	peers   map[string]*client
}

// attempt runs one task attempt body in a task slot, against the
// job rebuilt from its spec.
func (w *workerRPC) attempt(args TaskArgs, body func(job *mapreduce.Job) error) error {
	w.slots <- struct{}{}
	defer func() { <-w.slots }()
	st := &rpcStorage{w: w, lease: args.Lease, side: args.Side, split: args.Split}
	job, err := mapreduce.JobFromSpec(args.Spec, st)
	if err != nil {
		return err
	}
	job.Buffers = w.buffers
	if err := body(&job); err != nil {
		return err
	}
	w.maybeExit(args.Spec.Conf)
	return nil
}

// RunMap executes one map attempt and keeps its segments under the
// attempt's lease; the reply carries counters and metrics.
func (w *workerRPC) RunMap(args TaskArgs, reply *TaskReply) error {
	return w.attempt(args, func(job *mapreduce.Job) error {
		parts, out, err := mapreduce.ExecMapAttempt(job, args.TaskID, args.Attempt, args.Split)
		w.mu.Lock()
		if err == nil {
			w.outputs[args.Lease] = parts
		}
		w.mu.Unlock()
		reply.Counters, reply.Metrics = out.Counters, out.Metrics
		return err
	})
}

// RunReduce gathers the attempt's segments and executes it, writing the
// part file under the coordinator-chosen temporary name through the FS
// service.
func (w *workerRPC) RunReduce(args TaskArgs, reply *TaskReply) error {
	return w.attempt(args, func(job *mapreduce.Job) error {
		column, err := w.gather(args.Maps, args.TaskID)
		if err != nil {
			return err
		}
		out, err := mapreduce.ExecReduceAttempt(job, args.TaskID, args.Attempt, column, args.Temp)
		reply.Temp, reply.Counters, reply.Metrics = out.Temp, out.Counters, out.Metrics
		return err
	})
}

// fetchFailed starts the error of a reduce attempt that could not fetch
// from a holder; the holder's worker ID follows. The coordinator reads
// it as that holder's loss, not as a failure of the task.
const fetchFailed = "distrib: fetch failed from worker "

// gather assembles reducer part's column in map-task order: segments
// this worker holds are used in place, the others come in one Fetch per
// peer.
func (w *workerRPC) gather(maps []Holder, part int) ([][]byte, error) {
	column := make([][]byte, len(maps))
	remote := map[string][]int{} // peer address → positions in maps
	w.mu.Lock()
	for i, h := range maps {
		if parts, ok := w.outputs[h.Lease]; ok {
			column[i] = parts[part]
		} else {
			remote[h.Addr] = append(remote[h.Addr], i)
		}
	}
	w.mu.Unlock()
	for addr, pos := range remote {
		args := FetchArgs{Part: part}
		for _, i := range pos {
			args.Leases = append(args.Leases, maps[i].Lease)
		}
		var segs [][]byte
		if err := w.fetch(addr, args, &segs); err != nil {
			return nil, fmt.Errorf("%s%d: %v", fetchFailed, maps[pos[0]].Worker, err)
		}
		for k, i := range pos {
			column[i] = segs[k]
		}
	}
	return column, nil
}

// fetch calls a peer's Fetch over a kept connection, dropping it on
// error.
func (w *workerRPC) fetch(addr string, args FetchArgs, reply *[][]byte) error {
	w.mu.Lock()
	cl := w.peers[addr]
	var err error
	if cl == nil {
		if cl, err = dial(addr, w.stats); err == nil {
			w.peers[addr] = cl
		}
	}
	w.mu.Unlock()
	if err == nil {
		if err = cl.call("Worker.Fetch", args, reply); err != nil {
			w.mu.Lock()
			if w.peers[addr] == cl {
				delete(w.peers, addr)
			}
			w.mu.Unlock()
			cl.Close()
		}
	}
	return err
}

// Fetch serves reducer args.Part's segments of the outputs held under
// args.Leases. It takes no task slot: reduce attempts that fill every
// slot of two workers fetch from each other.
func (w *workerRPC) Fetch(args FetchArgs, reply *[][]byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, l := range args.Leases {
		parts, ok := w.outputs[l]
		if !ok {
			return fmt.Errorf("distrib: no map output under lease %d", l)
		}
		*reply = append(*reply, parts[args.Part])
	}
	return nil
}

// Free drops map outputs whose job has ended.
func (w *workerRPC) Free(leases []int64, _ *Ack) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, l := range leases {
		delete(w.outputs, l)
	}
	return nil
}

// Stats reports this worker's RPC numbers and held outputs.
func (w *workerRPC) Stats(_ Ack, reply *Stats) error {
	reply.RPC = w.stats.snapshot()
	w.mu.Lock()
	reply.Held = len(w.outputs)
	w.mu.Unlock()
	return nil
}

// maybeExit implements the Conf["distrib.exit-after"]=N crash hook:
// worker 1, the first to register and so the one dispatch picks first,
// exits hard after completing its Nth task body, BEFORE replying — the
// window between doing the work and reporting it. The double-count
// regression test uses it to prove counters from the lost reply are
// never merged.
func (w *workerRPC) maybeExit(conf map[string]string) {
	n, err := strconv.Atoi(conf["distrib.exit-after"])
	if err != nil || n <= 0 || w.id != 1 {
		return
	}
	if atomic.AddInt64(&w.done, 1) >= int64(n) {
		os.Exit(1)
	}
}

// rpcStorage implements the part of dfs.Storage task bodies use (read
// a split's block and side files, write part files) against the
// coordinator's FS service, scoped to one attempt's lease, on which the
// coordinator serves reads and fences writes. The attempt's split block
// and its job's side files go through the worker's cache.
type rpcStorage struct {
	w     *workerRPC
	lease int64
	side  map[string]uint64
	split dfs.Split
}

func (s *rpcStorage) call(method string, args, reply any) error {
	return s.w.coord.call("Coordinator."+method, args, reply)
}

// Block implements dfs.Storage.
func (s *rpcStorage) Block(name string, idx int) ([]byte, error) {
	read := func() ([]byte, error) {
		var data []byte
		err := s.call("Block", FileArgs{Lease: s.lease, Name: name, Block: idx}, &data)
		return data, err
	}
	if name != s.split.File || idx != s.split.Block || s.split.FileID == 0 {
		return read()
	}
	return s.w.cache.read(blockKey{s.split.FileID, idx}, read)
}

// ReadAll implements dfs.Storage. Side files are complete before their
// job starts, so the whole file is cached under its identity.
func (s *rpcStorage) ReadAll(name string) ([]byte, error) {
	read := func() ([]byte, error) {
		var data []byte
		err := s.call("ReadAll", FileArgs{Lease: s.lease, Name: name}, &data)
		return data, err
	}
	id, ok := s.side[name]
	if !ok {
		return read()
	}
	return s.w.cache.read(blockKey{id, -1}, read)
}

// Create implements dfs.Storage.
func (s *rpcStorage) Create(name string) (dfs.RecordWriter, error) {
	var handle int64
	if err := s.call("Create", FileArgs{Lease: s.lease, Name: name}, &handle); err != nil {
		return nil, err
	}
	return &rpcWriter{s: s, handle: handle}, nil
}

var errNotServed = errors.New("distrib: not served to workers")

// The rest of dfs.Storage is not served. Exists and List panic (a task
// attempt recovers that as its failure) rather than answer wrongly.
func (s *rpcStorage) Splits(string) ([]dfs.Split, error) { return nil, errNotServed }
func (s *rpcStorage) Rename(string, string) error        { return errNotServed }
func (s *rpcStorage) Remove(string) error                { return errNotServed }
func (s *rpcStorage) Exists(string) bool                 { panic(errNotServed) }
func (s *rpcStorage) List(string) []string               { panic(errNotServed) }

var _ dfs.Storage = (*rpcStorage)(nil)

// writerFlushBytes is the append-batch threshold: small enough to bound
// worker memory, large enough to keep record appends off the RPC round
// trip.
const writerFlushBytes = 256 << 10

// rpcWriter packs records into a batch and keeps one Append in flight
// while the next batch fills; an Append's error surfaces at the next
// flush or at Close. Client.Go has encoded and written a batch by the
// time it returns, so the one buffer is refilled at once.
type rpcWriter struct {
	s       *rpcStorage
	handle  int64
	batch   AppendArgs
	pending *rpc.Call
}

// Append implements dfs.RecordWriter.
func (w *rpcWriter) Append(record []byte) error {
	w.batch.Data = append(w.batch.Data, record...)
	w.batch.Lens = append(w.batch.Lens, uint32(len(record)))
	if len(w.batch.Data) >= writerFlushBytes {
		return w.flush()
	}
	return nil
}

// flush sends the filled batch once the one before it is acknowledged.
func (w *rpcWriter) flush() error {
	if err := w.wait(); err != nil || len(w.batch.Lens) == 0 {
		return err
	}
	w.batch.Handle = w.handle
	w.pending = w.s.w.coord.Go("Coordinator.Append", &w.batch, &Ack{}, nil)
	w.batch.Data, w.batch.Lens = w.batch.Data[:0], w.batch.Lens[:0]
	return nil
}

// wait collects the Append in flight, if any. Its Time is the time
// the writer waited here.
func (w *rpcWriter) wait() error {
	if w.pending == nil {
		return nil
	}
	start := time.Now()
	<-w.pending.Done
	w.s.w.stats.add("Coordinator.Append", RPCStat{Calls: 1, Time: time.Since(start)})
	err := w.pending.Error
	w.pending = nil
	return err
}

// Close implements dfs.RecordWriter.
func (w *rpcWriter) Close() error {
	if err := w.flush(); err != nil {
		return err
	}
	if err := w.wait(); err != nil {
		return err
	}
	return w.s.call("CloseWriter", w.handle, &Ack{})
}
