package distrib

import (
	"errors"
	"sync"
	"testing"
	"time"

	"fuzzyjoin/internal/dfs"
)

func newCoord(t *testing.T, hb time.Duration) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(hb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func register(t *testing.T, c *Coordinator, index int) int {
	t.Helper()
	var reply RegisterReply
	if err := (&coordRPC{c: c}).Register(RegisterArgs{
		Addr: "127.0.0.1:1", PID: index,
	}, &reply); err != nil {
		t.Fatal(err)
	}
	return reply.ID
}

// TestRegistryConcurrent hammers the worker registry, lease table, and
// liveness monitor from many goroutines. It exists to run under -race:
// registration, heartbeats, dispatch picking, lease transitions, and
// dead-marking all contend on the same state.
func TestRegistryConcurrent(t *testing.T) {
	c := newCoord(t, 5*time.Millisecond)
	rpc := &coordRPC{c: c}
	fs := dfs.New(dfs.Options{BlockSize: 256, Nodes: 2})

	ids := make([]int, 8)
	for i := range ids {
		ids[i] = register(t, c, i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 5 {
				case 0:
					if w := c.pickWorker(); w != nil {
						l := c.grantLease(w.id, fs)
						if i%2 == 0 {
							c.completeLease(l)
						} else {
							c.revokeLease(l)
						}
						c.release(w)
					}
				case 1:
					rpc.Heartbeat(ids[(g+i)%len(ids)], &Ack{})
				case 2:
					c.LiveWorkers()
				case 3:
					c.live()
				case 4:
					if i%50 == 0 {
						c.workerFailed(ids[(g*31+i)%len(ids)])
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLeaseFencing walks the lease state machine: files created under a
// lease disappear on revocation, post-revocation writes are rejected,
// and a revoked lease can never complete (single-winner).
func TestLeaseFencing(t *testing.T) {
	c := newCoord(t, time.Minute)
	rpc := &coordRPC{c: c}
	fs := dfs.New(dfs.Options{BlockSize: 256, Nodes: 2})
	id := register(t, c, 0)

	l := c.grantLease(id, fs)
	var created int64
	if err := rpc.Create(FileArgs{Lease: l.id, Name: "out/_temporary-x"}, &created); err != nil {
		t.Fatal(err)
	}
	if err := rpc.Append(AppendArgs{Handle: created, Data: []byte("rec"), Lens: []uint32{3}}, &Ack{}); err != nil {
		t.Fatal(err)
	}
	if err := rpc.CloseWriter(created, &Ack{}); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("out/_temporary-x") {
		t.Fatal("file missing while lease granted")
	}

	c.revokeLease(l)
	if fs.Exists("out/_temporary-x") {
		t.Error("revocation left the lease's file behind")
	}
	if err := rpc.Create(FileArgs{Lease: l.id, Name: "out/_temporary-y"}, &created); !errors.Is(err, ErrLeaseRevoked) {
		t.Errorf("Create on revoked lease: %v, want ErrLeaseRevoked", err)
	}
	if c.completeLease(l) {
		t.Error("revoked lease completed")
	}

	// A fresh lease completes exactly once; afterwards it can't be revoked
	// into removing committed files.
	l2 := c.grantLease(id, fs)
	if err := rpc.Create(FileArgs{Lease: l2.id, Name: "out/_temporary-z"}, &created); err != nil {
		t.Fatal(err)
	}
	if err := rpc.CloseWriter(created, &Ack{}); err != nil {
		t.Fatal(err)
	}
	if !c.completeLease(l2) {
		t.Fatal("granted lease refused completion")
	}
	if c.completeLease(l2) {
		t.Error("lease completed twice")
	}
	c.revokeLease(l2)
	if !fs.Exists("out/_temporary-z") {
		t.Error("revoking a completed lease removed its committed file")
	}
}

// TestHeartbeatTimeoutMarksDead registers a worker that never
// heartbeats: the monitor must declare it dead within a few intervals,
// revoke its leases, and reject its next (zombie) heartbeat.
func TestHeartbeatTimeoutMarksDead(t *testing.T) {
	c := newCoord(t, 5*time.Millisecond)
	rpc := &coordRPC{c: c}
	fs := dfs.New(dfs.Options{BlockSize: 256, Nodes: 2})
	id := register(t, c, 0)
	l := c.grantLease(id, fs)
	var created int64
	if err := rpc.Create(FileArgs{Lease: l.id, Name: "out/_temporary-orphan"}, &created); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for c.LiveWorkers() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := c.LiveWorkers(); n != 0 {
		t.Fatalf("live workers = %d after heartbeat loss, want 0", n)
	}
	if fs.Exists("out/_temporary-orphan") {
		t.Error("dead worker's partial file survived")
	}
	if err := rpc.Heartbeat(id, &Ack{}); err == nil {
		t.Error("zombie heartbeat accepted")
	}
}

// TestPickWorkerLoadBalance verifies least-loaded selection with
// lowest-ID tie-break, and that dead workers are never picked.
func TestPickWorkerLoadBalance(t *testing.T) {
	c := newCoord(t, time.Minute)
	a := register(t, c, 0)
	b := register(t, c, 1)
	w1 := c.pickWorker()
	if w1.id != a {
		t.Fatalf("first pick = %d, want lowest id %d", w1.id, a)
	}
	w2 := c.pickWorker()
	if w2.id != b {
		t.Fatalf("second pick = %d, want %d (least loaded)", w2.id, b)
	}
	c.release(w1)
	c.workerFailed(a)
	w3 := c.pickWorker()
	if w3 == nil || w3.id != b {
		t.Fatalf("pick after failure = %v, want %d", w3, b)
	}
	c.workerFailed(b)
	if w := c.pickWorker(); w != nil {
		t.Fatalf("picked dead worker %d", w.id)
	}
}

// TestDispatchRetryKeySpacing sanity-checks that the dispatch backoff is
// deterministic per (job, phase, task) and zero on the first try.
func TestDispatchRetryKeySpacing(t *testing.T) {
	pol, maxTries := defaultDispatchRetry(2)
	r := &Runner{dispatchRetry: pol, maxDispatch: maxTries}
	if r.maxDispatch != 8 {
		t.Fatal("unexpected maxDispatch")
	}
	if d := r.dispatchRetry.Delay(dispatchKey("j", "map", 1), 1); d != 0 {
		t.Errorf("first dispatch try delayed %v", d)
	}
	d2a := r.dispatchRetry.Delay(dispatchKey("j", "map", 1), 2)
	d2b := r.dispatchRetry.Delay(dispatchKey("j", "map", 1), 2)
	if d2a != d2b {
		t.Errorf("dispatch backoff not deterministic: %v vs %v", d2a, d2b)
	}
	if d2a <= 0 {
		t.Error("second dispatch try has no backoff")
	}
}
