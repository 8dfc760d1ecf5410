// Package hostpool provides the process-wide worker pool that host-parallel
// execution layers share. The BSP machine model simulates up to thousands of
// tiles per superstep; the graph engine splits an interpreted compute
// superstep into shards and offers them here.
//
// One pool serves the whole process so concurrent engines (the serve layer
// runs one engine per Prepared replica) cannot oversubscribe the host: the
// pool holds exactly Parallelism() workers, and a Submit that finds no worker
// immediately free runs the task inline on the caller's goroutine. Under
// contention every engine therefore degrades gracefully toward serial
// execution on its own coordinator goroutine instead of piling up runnable
// goroutines. Correctness never depends on where a task runs — callers give
// every task its own scratch state and merge results deterministically.
package hostpool

import (
	"runtime"
	"sync"
)

// Task is one unit of shard work. Run must not Submit further tasks (a task
// executing on a pool worker that blocks on the pool can deadlock it).
type Task interface {
	Run()
}

var (
	once    sync.Once
	tasks   chan Task
	workers int
)

// Parallelism returns the number of pool workers: GOMAXPROCS at first use.
// It is the default shard count for engines that do not configure one.
func Parallelism() int {
	ensure()
	return workers
}

func ensure() {
	once.Do(func() {
		workers = runtime.GOMAXPROCS(0)
		// Unbuffered: a send succeeds only when a worker is parked on the
		// channel, which is exactly the "a core is actually free" signal.
		tasks = make(chan Task)
		for i := 0; i < workers; i++ {
			go func() {
				for t := range tasks {
					t.Run()
				}
			}()
		}
	})
}

// Submit offers t to the pool. If no worker is immediately available the task
// runs synchronously on the caller's goroutine — callers always make progress
// and total host parallelism stays bounded by the worker count plus the
// submitting coordinators (which exist either way).
func Submit(t Task) {
	ensure()
	select {
	case tasks <- t:
	default:
		t.Run()
	}
}
