package distrib

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

// Options configures a worker fleet.
type Options struct {
	// Workers is the number of worker processes to fork (default 1).
	Workers int
	// Slots bounds concurrent task executions per worker (default 1, so
	// an n-worker fleet has n-way task parallelism — the honest setting
	// for speedup measurements).
	Slots int
	// Heartbeat is the liveness interval (default 250ms; a worker is
	// declared dead after 4 missed intervals). Tests use short intervals
	// for fast failure detection.
	Heartbeat time.Duration
	// Kill, when non-nil, arms the chaos harness.
	Kill *KillSpec
	// Stderr receives worker process output (default os.Stderr).
	Stderr io.Writer
	// StartTimeout bounds worker registration (default 10s).
	StartTimeout time.Duration
}

// Session is a running coordinator plus its forked worker processes.
// Set Config.Runner = session.Runner (or Job.Runner) to execute a
// pipeline on the fleet.
type Session struct {
	Coord  *Coordinator
	Runner *Runner
	cmds   []*exec.Cmd
}

// Start launches the coordinator and forks opts.Workers copies of the
// current executable as worker processes; MaybeWorker (called at the
// top of the re-executed main or TestMain) turns each child into a
// worker. Start returns once every worker has registered.
func Start(opts Options) (*Session, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	coord, err := NewCoordinator(opts.Heartbeat)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		coord.Close()
		return nil, fmt.Errorf("distrib: resolving executable: %w", err)
	}
	stderr := opts.Stderr
	if stderr == nil {
		stderr = os.Stderr
	}
	s := &Session{Coord: coord}
	for i := 0; i < workers; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("%s=%s", EnvCoord, coord.Addr()),
			fmt.Sprintf("%s=%d", EnvIndex, i),
		)
		if opts.Slots > 0 {
			cmd.Env = append(cmd.Env, fmt.Sprintf("%s=%d", EnvSlots, opts.Slots))
		}
		cmd.Stdout = stderr
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			s.Close()
			return nil, fmt.Errorf("distrib: forking worker %d: %w", i, err)
		}
		s.cmds = append(s.cmds, cmd)
	}
	timeout := opts.StartTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	if err := coord.WaitWorkers(workers, timeout); err != nil {
		s.Close()
		return nil, err
	}
	pol, maxTries := defaultDispatchRetry(workers)
	s.Runner = &Runner{coord: coord, kill: opts.Kill, dispatchRetry: pol, maxDispatch: maxTries}
	return s, nil
}

// KillWorker SIGKILLs the i'th forked worker process — the test hook
// for worker-loss scenarios.
func (s *Session) KillWorker(i int) {
	if i >= 0 && i < len(s.cmds) && s.cmds[i].Process != nil {
		s.cmds[i].Process.Kill()
	}
}

// Stats returns the session's data-plane account: the coordinator's
// calls and every live worker's, the map outputs recomputed so far, and
// those the workers hold now.
func (s *Session) Stats() Stats {
	st := Stats{RPC: s.Coord.stats.snapshot(), Recomputed: s.Runner.recomputed.Load()}
	if st.RPC == nil {
		st.RPC = map[string]RPCStat{}
	}
	for _, w := range s.Coord.live() {
		cl, err := s.Coord.workerClient(w)
		var reply Stats
		if err != nil || cl.call("Worker.Stats", Ack{}, &reply) != nil {
			continue
		}
		for m, d := range reply.RPC {
			st.RPC[m] = st.RPC[m].plus(d)
		}
		st.Held += reply.Held
	}
	return st
}

// Close SIGKILLs all workers and shuts the coordinator down.
func (s *Session) Close() {
	for _, cmd := range s.cmds {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
	for _, cmd := range s.cmds {
		cmd.Wait()
	}
	if s.Coord != nil {
		s.Coord.Close()
	}
}
