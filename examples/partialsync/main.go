// Partialsync: the paper's end-to-end partial-synchrony result, live.
//
// This example runs on the goroutine runtime (real concurrency, real
// clocks, real timeouts), not the simulator: every process is a goroutine,
// the network delivers each broadcast copy after a random real delay, and
// before GST (here 80ms) deliveries are arbitrarily slow. Each process
// stacks the Figure 6 detector (◇HP̄ → HΩ, adaptive timeouts) under the
// Figure 8 consensus — the combination the paper highlights: consensus in
// a homonymous partially synchronous system with a majority of correct
// processes and no initial membership knowledge. Both are the simulator's
// own state machines, hosted on live mailbox goroutines.
//
//	go run ./examples/partialsync
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/fd/ohp"
	"repro/internal/hruntime"
	"repro/internal/ident"
	"repro/internal/sim"
)

func main() {
	ids := ident.Assignment{"ant", "ant", "bee", "bee", "cat"}
	n := ids.N()
	const tFaults = 2

	cluster := hruntime.NewCluster(ids, hruntime.Options{
		Seed:     42,
		MinDelay: 200 * time.Microsecond,
		MaxDelay: 2 * time.Millisecond,
		GST:      80 * time.Millisecond, // links timely only after this
	})
	procs := make([]sim.Process, n)
	insts := make([]*core.Fig8, n)
	for i := range procs {
		det := ohp.New()
		insts[i] = core.NewFig8(det, tFaults, core.Value(fmt.Sprintf("proposal-of-p%d", i)))
		procs[i] = sim.NewNode().Add("fd", det).Add("consensus", insts[i])
	}
	fmt.Printf("%d goroutine-processes, ids %v, GST in 80ms…\n", n, ids)
	host := hruntime.Start(cluster, procs)
	defer host.Close()

	// Crash one "ant" after 20ms — mid pre-GST chaos.
	time.Sleep(20 * time.Millisecond)
	cluster.Crash(1)
	fmt.Println("crashed process 1 (an 'ant') during the unstable period")

	decided := make(map[int]core.Value)
	for deadline := time.Now().Add(30 * time.Second); len(decided) < n-1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			log.Fatalf("timeout: %d of %d survivors decided", len(decided), n-1)
		}
		for p := range insts {
			if p == 1 {
				continue
			}
			host.Do(p, func() {
				if out := insts[p].Decided(); out.Decided {
					decided[p] = out.Value
				}
			})
		}
	}
	host.Close()

	var common core.Value
	for p, v := range decided {
		if common == "" {
			common = v
		}
		if v != common {
			log.Fatalf("agreement violated: p%d decided %q, others %q", p, v, common)
		}
	}
	fmt.Println("consensus reached ✔ (live goroutines, partial synchrony)")
	fmt.Printf("  all %d survivors decided %q\n", len(decided), common)
}
