package distrib

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"maps"
	"net"
	"net/rpc"
	"sync"
	"time"
)

// RPCStat is the traffic of one RPC method, measured by its callers.
type RPCStat struct {
	Calls      int64
	ArgBytes   int64         // request bytes sent: gob header and arguments
	ReplyBytes int64         // response bytes received
	Time       time.Duration // the callers' time blocked in the calls
}

// Stats is a session's data-plane account. It depends on task
// placement, so it is not part of a job's counters.
type Stats struct {
	// RPC is keyed by "Service.Method": Worker.* calls are made by the
	// coordinator (Worker.Fetch by peer workers), Coordinator.* calls by
	// workers. A worker's own calls are lost with it when it dies.
	RPC map[string]RPCStat
	// Recomputed counts map outputs re-run because their holder died.
	Recomputed int64
	// Held counts the map outputs the live workers hold now.
	Held int
}

// rpcStats accumulates one process's RPCStats.
type rpcStats struct {
	mu sync.Mutex
	m  map[string]RPCStat
}

func (s *rpcStats) add(method string, d RPCStat) {
	if method == "Worker.Stats" {
		return // reading the numbers is not part of them
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = map[string]RPCStat{}
	}
	s.m[method] = s.m[method].plus(d)
}

func (t RPCStat) plus(d RPCStat) RPCStat {
	return RPCStat{t.Calls + d.Calls, t.ArgBytes + d.ArgBytes, t.ReplyBytes + d.ReplyBytes, t.Time + d.Time}
}

func (s *rpcStats) snapshot() map[string]RPCStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.m)
}

// client is a net/rpc client whose calls are counted by method: calls
// and time by call, wire bytes by its codec.
type client struct {
	*rpc.Client
	stats *rpcStats
}

func dial(addr string, stats *rpcStats) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &statsCodec{conn: conn, stats: stats, r: countingReader{r: bufio.NewReader(conn)}}
	c.enc, c.dec = gob.NewEncoder(&c.out), gob.NewDecoder(&c.r)
	return &client{rpc.NewClientWithCodec(c), stats}, nil
}

func (c *client) call(method string, args, reply any) error {
	start := time.Now()
	err := c.Call(method, args, reply)
	c.stats.add(method, RPCStat{Calls: 1, Time: time.Since(start)})
	return err
}

// statsCodec is net/rpc's gob client codec, counting the bytes of each
// request and response by method.
type statsCodec struct {
	conn   net.Conn
	stats  *rpcStats
	out    bytes.Buffer // one encoded request
	r      countingReader
	enc    *gob.Encoder
	dec    *gob.Decoder
	method string // of the response being read
	mark   int64  // r.n where it began
}

func (c *statsCodec) WriteRequest(req *rpc.Request, body any) error {
	c.out.Reset()
	if err := c.enc.Encode(req); err != nil {
		return err
	}
	if err := c.enc.Encode(body); err != nil {
		return err
	}
	c.stats.add(req.ServiceMethod, RPCStat{ArgBytes: int64(c.out.Len())})
	_, err := c.conn.Write(c.out.Bytes())
	return err
}

func (c *statsCodec) ReadResponseHeader(resp *rpc.Response) error {
	c.mark = c.r.n
	err := c.dec.Decode(resp)
	c.method = resp.ServiceMethod
	return err
}

func (c *statsCodec) ReadResponseBody(body any) error {
	err := c.dec.Decode(body)
	c.stats.add(c.method, RPCStat{ReplyBytes: c.r.n - c.mark})
	return err
}

func (c *statsCodec) Close() error { return c.conn.Close() }

// countingReader is an io.ByteReader, so gob reads through it unbuffered
// and every byte of a message is counted once.
type countingReader struct {
	r *bufio.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}
