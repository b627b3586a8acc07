package mapreduce

import (
	"runtime"
	"time"
)

// taskClock measures a task attempt's Cost: the CPU time of the OS
// thread that runs the task body, which is locked to that thread from
// startTaskClock to release. The cluster simulator schedules each task
// on a slot of its own, so its cost must not include time the task
// spent waiting for a CPU: other tasks of the job (Parallelism may
// exceed the host's cores), other processes, and the runtime's
// background collector all take the host's CPUs from it. Wall time
// counts all of them and CPU time none. Where the platform has no
// per-thread clock the cost is wall time.
type taskClock struct {
	wall time.Time
	cpu  time.Duration
	ok   bool
}

func startTaskClock() taskClock {
	runtime.LockOSThread()
	cpu, ok := threadCPUTime()
	return taskClock{wall: time.Now(), cpu: cpu, ok: ok}
}

// elapsed is the thread's CPU time since startTaskClock, or the wall
// time where no thread clock could be read.
func (c taskClock) elapsed() time.Duration {
	if c.ok {
		if cpu, ok := threadCPUTime(); ok {
			return cpu - c.cpu
		}
	}
	return time.Since(c.wall)
}

// release unlocks the task's goroutine from its thread.
func (c taskClock) release() { runtime.UnlockOSThread() }
