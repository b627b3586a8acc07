package distrib

import "syscall"

// KillWorkerID SIGKILLs the worker registered under id.
func (s *Session) KillWorkerID(id int) {
	s.Coord.mu.Lock()
	w := s.Coord.workers[id]
	s.Coord.mu.Unlock()
	if w != nil {
		syscall.Kill(w.pid, syscall.SIGKILL)
	}
}
