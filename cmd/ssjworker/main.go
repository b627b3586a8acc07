// Command ssjworker is a standalone worker process for the distributed
// execution backend (internal/distrib): it dials a coordinator, serves
// map/reduce task attempts over RPC, and exits when the coordinator
// goes away or declares it dead.
//
// The usual way to get workers is to let a coordinator-side command
// fork them (fuzzyjoin -workers n, ssjcheck -workers n); those
// forks re-exec the parent binary. ssjworker exists for running workers
// by hand against a program that embeds distrib.NewCoordinator — e.g.
// to attach an extra worker to a live session, or to observe a worker's
// lifecycle in isolation:
//
//	ssjworker -coordinator 127.0.0.1:41234 -index 1 -slots 2
//
// The flags mirror the SSJ_DISTRIB_COORD, SSJ_WORKER_INDEX, and
// SSJ_WORKER_SLOTS environment variables a forked worker receives.
package main

import (
	"flag"
	"fmt"
	"os"

	"fuzzyjoin/internal/distrib"
)

func main() {
	var (
		coord = flag.String("coordinator", os.Getenv(distrib.EnvCoord), "coordinator RPC address (required; defaults to $"+distrib.EnvCoord+")")
		index = flag.Int("index", envInt(distrib.EnvIndex, 0), "worker index, which spreads the dial retries")
		slots = flag.Int("slots", envInt(distrib.EnvSlots, 1), "concurrent task executions this worker accepts")
	)
	flag.Parse()
	if *coord == "" {
		fmt.Fprintln(os.Stderr, "ssjworker: no coordinator address (-coordinator or $"+distrib.EnvCoord+")")
		flag.Usage()
		os.Exit(2)
	}
	os.Setenv(distrib.EnvIndex, fmt.Sprint(*index))
	os.Setenv(distrib.EnvSlots, fmt.Sprint(*slots))
	if err := distrib.WorkerMain(*coord); err != nil {
		fmt.Fprintln(os.Stderr, "ssjworker:", err)
		os.Exit(1)
	}
}

func envInt(name string, def int) int {
	n := def
	if s := os.Getenv(name); s != "" {
		fmt.Sscanf(s, "%d", &n)
	}
	return n
}
