package distrib

import (
	"bytes"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"testing"
	"time"

	"fuzzyjoin/internal/dfs"
)

// serveWorker serves w's RPC methods on a loopback port, as a worker
// process does, and returns the address.
func serveWorker(t *testing.T, w *workerRPC) string {
	t.Helper()
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", w); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go serve(ln, srv)
	return ln.Addr().String()
}

func newTestWorker(slots int) *workerRPC {
	return &workerRPC{
		stats:   &rpcStats{},
		slots:   make(chan struct{}, slots),
		cache:   &blockCache{},
		outputs: map[int64][][]byte{},
		peers:   map[string]*client{},
	}
}

func segment(lease int64, part int) []byte { return []byte(fmt.Sprintf("seg-%d-%d", lease, part)) }

// TestFetchServedWhileTasksRun gathers reduce columns from a peer whose
// only task slot is taken, while the peer frees and gains other outputs.
// Fetch takes no slot, so every gather completes; each column holds the
// local and fetched segments in map-task order.
func TestFetchServedWhileTasksRun(t *testing.T) {
	peer, local := newTestWorker(1), newTestWorker(1)
	peer.slots <- struct{}{} // a task runs on the peer throughout
	addr := serveWorker(t, peer)
	const parts = 3
	for lease := int64(1); lease <= 4; lease++ {
		w := peer
		if lease%2 == 0 {
			w = local
		}
		for p := 0; p < parts; p++ {
			w.outputs[lease] = append(w.outputs[lease], segment(lease, p))
		}
	}
	maps := []Holder{{1, addr, 1}, {2, "", 2}, {1, addr, 3}, {2, "", 4}}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				part := (g + i) % parts
				column, err := local.gather(maps, part)
				if err != nil {
					t.Error(err)
					return
				}
				for k, h := range maps {
					if !bytes.Equal(column[k], segment(h.Lease, part)) {
						t.Errorf("column[%d] = %q, want %q", k, column[k], segment(h.Lease, part))
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // other jobs' outputs come and go on the peer
		defer wg.Done()
		for i := int64(100); i < 300; i++ {
			peer.mu.Lock()
			peer.outputs[i] = [][]byte{nil, nil, nil}
			peer.mu.Unlock()
			peer.Free([]int64{i}, &Ack{})
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("gathers blocked on the peer's busy task slot")
	}
	if len(peer.outputs) != 2 {
		t.Errorf("peer holds %d outputs, want its 2", len(peer.outputs))
	}
	if _, err := local.gather([]Holder{{1, addr, 99}}, 0); err == nil {
		t.Error("fetching a freed output succeeded")
	}
}

// writerSetup is a coordinator, a registered worker with its client to
// it, and an FS the worker writes through.
func writerSetup(t *testing.T) (*Coordinator, *workerRPC, *dfs.FS, int) {
	t.Helper()
	c := newCoord(t, time.Minute)
	id := register(t, c, 0)
	fs := dfs.New(dfs.Options{BlockSize: 4 << 10, Nodes: 2})
	w := newTestWorker(1)
	cl, err := dial(c.Addr(), w.stats)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	w.coord = cl
	return c, w, fs, id
}

// TestPipelinedWriterKeepsOrder writes files of many batches from
// concurrent writers sharing one client, and requires each file to hold
// its records in order.
func TestPipelinedWriterKeepsOrder(t *testing.T) {
	c, w, fs, id := writerSetup(t)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := c.grantLease(id, fs)
			st := &rpcStorage{w: w, lease: l.id}
			name := fmt.Sprintf("out/f%d", g)
			wr, err := st.Create(name)
			if err != nil {
				t.Error(err)
				return
			}
			var want bytes.Buffer
			for i := 0; i < 6000; i++ {
				rec := []byte(fmt.Sprintf("%d-%d-%s\n", g, i, bytes.Repeat([]byte("x"), i%200)))
				want.Write(rec)
				if err := wr.Append(rec); err != nil {
					t.Error(err)
					return
				}
			}
			if err := wr.Close(); err != nil {
				t.Error(err)
				return
			}
			got, err := fs.ReadAll(name)
			if err != nil || !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s: %d bytes (err %v), want %d in order", name, len(got), err, want.Len())
			}
		}(g)
	}
	wg.Wait()
	if n := w.stats.snapshot()["Coordinator.Append"].Calls; n < 6 {
		t.Errorf("%d Append calls; the files needed several batches each", n)
	}
}

// TestPipelinedWriterSurfacesRevocation revokes the lease while batches
// are in flight: the error surfaces at a later flush or at Close, and
// the file is gone.
func TestPipelinedWriterSurfacesRevocation(t *testing.T) {
	c, w, fs, id := writerSetup(t)
	l := c.grantLease(id, fs)
	st := &rpcStorage{w: w, lease: l.id}
	wr, err := st.Create("out/_temporary-r")
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte("y"), 1000)
	for i := 0; i < 300; i++ { // one batch in flight, the next filling
		if err := wr.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	c.revokeLease(l)
	err = nil
	for i := 0; i < 1000 && err == nil; i++ {
		err = wr.Append(rec)
	}
	if err == nil {
		err = wr.Close()
	}
	if err == nil {
		t.Fatal("writes under a revoked lease reported no error")
	}
	if fs.Exists("out/_temporary-r") {
		t.Error("the revoked lease's file survived")
	}
}
