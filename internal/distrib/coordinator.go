package distrib

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"fuzzyjoin/internal/backoff"
	"fuzzyjoin/internal/dfs"
)

// ErrLeaseRevoked fences FS writes from attempts whose lease has been
// revoked (worker declared dead, or the dispatch was abandoned). The
// dispatcher treats it as a dispatch failure, not a task failure — it
// never consumes a RetryPolicy attempt.
var ErrLeaseRevoked = errors.New("distrib: lease revoked")

// ErrNoWorkers reports that no live worker is available for dispatch.
var ErrNoWorkers = errors.New("distrib: no live workers")

type leaseState int

const (
	leaseGranted leaseState = iota
	leaseCompleted
	leaseRevoked
)

// lease scopes one task-attempt dispatch: every file the attempt
// creates is recorded here, and revocation (crash, supersession)
// removes them all — the write-fencing half of crash recovery.
type lease struct {
	id      int64
	worker  int
	fs      dfs.Storage
	state   leaseState
	files   []string
	handles []int64
}

type writerHandle struct {
	lease *lease
	w     dfs.RecordWriter
}

type workerState struct {
	id       int
	addr     string
	pid      int
	lastBeat time.Time
	dead     bool
	inflight int
	client   *client
}

// Coordinator is the cluster control plane: the worker registry with
// heartbeat liveness, the lease table fencing worker writes, and the
// RPC surface through which workers reach the in-process DFS instance
// of their attempt's lease.
type Coordinator struct {
	ln        net.Listener
	heartbeat time.Duration

	mu         sync.Mutex
	closed     bool
	workers    map[int]*workerState
	nextWorker int
	leases     map[int64]*lease // granted ones
	nextLease  int64
	handles    map[int64]*writerHandle
	nextHandle int64
	stats      rpcStats // the coordinator's calls to workers
}

// NewCoordinator starts the RPC service on a loopback port and the
// liveness monitor. A worker missing heartbeats for 4 intervals is
// declared dead and its granted leases are revoked.
func NewCoordinator(heartbeat time.Duration) (*Coordinator, error) {
	if heartbeat <= 0 {
		heartbeat = 250 * time.Millisecond
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("distrib: coordinator listen: %w", err)
	}
	c := &Coordinator{
		ln:        ln,
		heartbeat: heartbeat,
		workers:   map[int]*workerState{},
		leases:    map[int64]*lease{},
		handles:   map[int64]*writerHandle{},
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Coordinator", &coordRPC{c: c}); err != nil {
		ln.Close()
		return nil, err
	}
	go serve(ln, srv)
	go c.monitor()
	return c, nil
}

// serve accepts connections for srv until ln closes.
func serve(ln net.Listener, srv *rpc.Server) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go srv.ServeConn(conn)
	}
}

// dialRetry dials addr with the shared deterministic backoff.
func dialRetry(addr string, stats *rpcStats, key backoff.Key) (cl *client, err error) {
	pol := backoff.Policy{Base: 5 * time.Millisecond, Factor: 2, Max: 200 * time.Millisecond}
	for attempt := 1; attempt <= 6; attempt++ {
		if d := pol.Delay(key, attempt); d > 0 {
			time.Sleep(d)
		}
		if cl, err = dial(addr, stats); err == nil {
			return cl, nil
		}
	}
	return nil, err
}

// Addr is the coordinator's dialable RPC address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close stops the RPC service and drops worker connections. Workers
// notice on their next heartbeat and exit.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.ln.Close()
	for _, w := range c.workers {
		if w.client != nil {
			w.client.Close()
			w.client = nil
		}
	}
}

func (c *Coordinator) monitor() {
	tick := time.NewTicker(c.heartbeat)
	defer tick.Stop()
	for range tick.C {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		cut := time.Now().Add(-4 * c.heartbeat)
		for _, w := range c.workers {
			if !w.dead && w.lastBeat.Before(cut) {
				c.markDeadLocked(w)
			}
		}
		c.mu.Unlock()
	}
}

func (c *Coordinator) markDeadLocked(w *workerState) {
	w.dead = true
	if w.client != nil {
		go w.client.Close()
		w.client = nil
	}
	for _, l := range c.leases {
		if l.worker == w.id && l.state == leaseGranted {
			c.revokeLocked(l)
		}
	}
}

// revokeLocked fences the lease and removes every file created under
// it — the crashed attempt's partial output disappears before any
// re-dispatched attempt can observe it.
func (c *Coordinator) revokeLocked(l *lease) {
	if l.state != leaseGranted {
		return
	}
	l.state = leaseRevoked
	delete(c.leases, l.id)
	for _, h := range l.handles {
		delete(c.handles, h)
	}
	for _, name := range l.files {
		l.fs.Remove(name) // if it is there
	}
}

func (c *Coordinator) grantLease(worker int, st dfs.Storage) *lease {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextLease++
	l := &lease{id: c.nextLease, worker: worker, fs: st}
	c.leases[l.id] = l
	return l
}

// completeLease transitions granted → completed and reports whether the
// attempt's results may be accepted. A false return means the lease was
// revoked while the reply was in flight (the worker was declared dead
// mid-attempt); its files are gone and the dispatch must be retried.
func (c *Coordinator) completeLease(l *lease) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l.state != leaseGranted {
		return false
	}
	l.state = leaseCompleted
	delete(c.leases, l.id)
	return true
}

func (c *Coordinator) revokeLease(l *lease) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.revokeLocked(l)
}

// pickWorker selects the least-loaded live worker (lowest ID on ties)
// and charges it one in-flight dispatch. Callers must release().
func (c *Coordinator) pickWorker() *workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *workerState
	for _, w := range c.workers {
		if w.dead {
			continue
		}
		if best == nil || w.inflight < best.inflight ||
			(w.inflight == best.inflight && w.id < best.id) {
			best = w
		}
	}
	if best != nil {
		best.inflight++
	}
	return best
}

// liveWorker returns worker id unless it is unknown or declared dead.
func (c *Coordinator) liveWorker(id int) *workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.workers[id]; w != nil && !w.dead {
		return w
	}
	return nil
}

func (c *Coordinator) release(w *workerState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w.inflight--
}

// workerFailed marks a worker dead after a transport failure without
// waiting for the heartbeat deadline, revoking its leases.
func (c *Coordinator) workerFailed(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.workers[id]; w != nil && !w.dead {
		c.markDeadLocked(w)
	}
}

// live returns the workers currently considered alive.
func (c *Coordinator) live() []*workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ws []*workerState
	for _, w := range c.workers {
		if !w.dead {
			ws = append(ws, w)
		}
	}
	return ws
}

// LiveWorkers counts workers currently considered alive.
func (c *Coordinator) LiveWorkers() int { return len(c.live()) }

// WaitWorkers blocks until n workers have registered (or the timeout).
func (c *Coordinator) WaitWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for c.LiveWorkers() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("distrib: %d of %d workers registered before timeout", c.LiveWorkers(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// workerClient returns the dispatch connection to a worker, dialing it
// with deterministic backoff on first use.
func (c *Coordinator) workerClient(w *workerState) (*client, error) {
	c.mu.Lock()
	if w.client != nil {
		cl := w.client
		c.mu.Unlock()
		return cl, nil
	}
	addr := w.addr
	c.mu.Unlock()
	cl, err := dialRetry(addr, &c.stats, backoff.Key{Scope: "distrib-dial", Sub: addr, ID: w.id})
	if err != nil {
		return nil, fmt.Errorf("distrib: dial worker %d at %s: %w", w.id, addr, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.client == nil {
		w.client = cl
		return cl, nil
	}
	// Another dispatch dialed concurrently; keep the registered one.
	go cl.Close()
	return w.client, nil
}

// coordRPC is the worker-facing RPC surface.
type coordRPC struct {
	c *Coordinator
}

// Register adds a worker to the registry.
func (r *coordRPC) Register(args RegisterArgs, reply *RegisterReply) error {
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("distrib: coordinator closed")
	}
	c.nextWorker++
	w := &workerState{
		id:       c.nextWorker,
		addr:     args.Addr,
		pid:      args.PID,
		lastBeat: time.Now(),
	}
	c.workers[w.id] = w
	reply.ID = w.id
	reply.HeartbeatNanos = int64(c.heartbeat)
	return nil
}

// Heartbeat refreshes worker id's liveness. Erroring tells a worker
// already declared dead (a zombie) to exit: its writes are fenced, its
// tasks re-dispatched.
func (r *coordRPC) Heartbeat(id int, _ *Ack) error {
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[id]
	if w == nil {
		return fmt.Errorf("distrib: unknown worker %d", id)
	}
	if w.dead {
		return fmt.Errorf("distrib: worker %d declared dead", id)
	}
	w.lastBeat = time.Now()
	return nil
}

// storage is the FS of a granted lease: reads and writes alike are
// served only to a live attempt.
func (r *coordRPC) storage(lease int64) (dfs.Storage, error) {
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	if l := r.c.leases[lease]; l != nil {
		return l.fs, nil
	}
	return nil, ErrLeaseRevoked
}

// Block serves one block of a file.
func (r *coordRPC) Block(args FileArgs, data *[]byte) error {
	st, err := r.storage(args.Lease)
	if err != nil {
		return err
	}
	*data, err = st.Block(args.Name, args.Block)
	return err
}

// ReadAll serves a whole file (side files).
func (r *coordRPC) ReadAll(args FileArgs, data *[]byte) error {
	st, err := r.storage(args.Lease)
	if err != nil {
		return err
	}
	*data, err = st.ReadAll(args.Name)
	return err
}

// Create opens a file for writing under the given lease and returns a
// write handle. The file is recorded on the lease so revocation can
// remove it.
func (r *coordRPC) Create(args FileArgs, handle *int64) error {
	st, err := r.storage(args.Lease)
	if err != nil {
		return err
	}
	w, err := st.Create(args.Name)
	if err != nil {
		return err
	}
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.leases[args.Lease]
	if l == nil {
		// Revoked while creating: seal and drop the file immediately.
		w.Close()
		st.Remove(args.Name)
		return ErrLeaseRevoked
	}
	c.nextHandle++
	c.handles[c.nextHandle] = &writerHandle{lease: l, w: w}
	l.files = append(l.files, args.Name)
	l.handles = append(l.handles, c.nextHandle)
	*handle = c.nextHandle
	return nil
}

// writer returns the open writer of a handle whose lease is granted,
// forgetting the handle when close is set.
func (r *coordRPC) writer(handle int64, close bool) (dfs.RecordWriter, error) {
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	h := r.c.handles[handle]
	if h == nil || h.lease.state != leaseGranted {
		return nil, ErrLeaseRevoked
	}
	if close {
		delete(r.c.handles, handle)
	}
	return h.w, nil
}

// Append writes a record batch through a handle, fenced per batch on
// the owning lease. The records are slices of the batch's one buffer;
// the DFS writer copies them.
func (r *coordRPC) Append(args AppendArgs, _ *Ack) error {
	w, err := r.writer(args.Handle, false)
	if err != nil {
		return err
	}
	data := args.Data
	for _, n := range args.Lens {
		if int(n) > len(data) {
			return errors.New("distrib: append batch shorter than its lengths")
		}
		if err := w.Append(data[:n]); err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// CloseWriter seals a write handle.
func (r *coordRPC) CloseWriter(handle int64, _ *Ack) error {
	w, err := r.writer(handle, true)
	if err != nil {
		return err
	}
	return w.Close()
}
