// Package freelist recycles scratch values between tasks: the engine's
// map output buffers, a file system's writer fill buffers and Stage 1's
// counting tables.
//
// A List is a bounded free list. A garbage collection does not empty it,
// as it empties a sync.Pool, so a buffer a task grew stays grown for the
// next task however often the collector runs. It holds at most its bound
// of values, and its owner clears it when the work that reuses them is
// done, so nothing stays pinned afterwards. A list whose Gets and Puts
// pair up never holds more values than were in use at once, so a bound
// of the task concurrency loses no reuse.
package freelist

import "sync"

// List is a bounded free list of *T. Methods are safe for concurrent
// use. A nil *List keeps nothing: Get returns a new zero value each time.
type List[T any] struct {
	mu   sync.Mutex
	free []*T
	max  int
}

// New returns a list that retains at most max values.
func New[T any](max int) *List[T] { return &List[T]{max: max} }

// Get returns the value Put most recently, or a new zero value when the
// list holds none.
func (l *List[T]) Get() *T {
	if l == nil {
		return new(T)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// Put hands x to the next Get. A list holding its bound leaves x to the
// garbage collector.
func (l *List[T]) Put(x *T) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < l.max {
		l.free = append(l.free, x)
	}
}

// Clear releases every value the list holds: an owner's way to stop
// pinning them once the work that reuses them is done.
func (l *List[T]) Clear() {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.free)
	l.free = l.free[:0]
}
