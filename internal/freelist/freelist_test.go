package freelist

import (
	"runtime"
	"sync"
	"testing"
)

// TestListSurvivesGC puts a value back, collects garbage twice (what
// empties a sync.Pool, victim cache included) and gets the same value.
func TestListSurvivesGC(t *testing.T) {
	l := New[[]byte](1)
	b := l.Get()
	*b = make([]byte, 0, 1<<20)
	l.Put(b)
	runtime.GC()
	runtime.GC()
	if got := l.Get(); got != b || cap(*got) != 1<<20 {
		t.Fatalf("after GC: got %p cap %d, want %p cap %d", got, cap(*got), b, 1<<20)
	}
}

// TestListBound checks that a list retains at most its bound, hands
// values back last in first out, and holds nothing once cleared but
// retains again afterwards.
func TestListBound(t *testing.T) {
	l := New[int](2)
	xs := []*int{l.Get(), l.Get(), l.Get()}
	for _, x := range xs {
		l.Put(x)
	}
	if got := l.Get(); got != xs[1] {
		t.Fatalf("Get = %p, want the last value retained %p", got, xs[1])
	}
	if got := l.Get(); got != xs[0] {
		t.Fatalf("Get = %p, want %p", got, xs[0])
	}
	if got := l.Get(); got == xs[0] || got == xs[1] || got == xs[2] {
		t.Fatal("a list over its bound retained the third value")
	}
	l.Put(xs[0])
	l.Clear()
	if got := l.Get(); got == xs[0] {
		t.Fatal("a cleared list kept a value")
	}
	l.Put(xs[1])
	if got := l.Get(); got != xs[1] {
		t.Fatal("a cleared list no longer retains")
	}
	var none *List[int]
	none.Put(xs[0])
	if got := none.Get(); got == nil || got == xs[0] {
		t.Fatalf("nil list Get = %p, want a new value", got)
	}
}

// TestListConcurrent has more goroutines than the bound get, use and put
// values at once, then checks that the list never retained more than its
// bound. Run under -race.
func TestListConcurrent(t *testing.T) {
	const bound = 3
	l := New[[]int](bound)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				x := l.Get()
				*x = append((*x)[:0], g, i)
				if (*x)[0] != g || (*x)[1] != i {
					t.Errorf("value shared between goroutines: %v", *x)
				}
				l.Put(x)
			}
		}(g)
	}
	wg.Wait()
	if n := len(l.free); n > bound {
		t.Fatalf("list retains %d values, bound %d", n, bound)
	}
}
