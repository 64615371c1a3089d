package hruntime

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Unit is the real length of one sim.Time unit on a live host: a timer set
// for d units fires after d×Unit, and Now and every trace event report
// elapsed time in Units.
const Unit = time.Millisecond

// Host runs the simulator's event-driven processes live: one mailbox
// goroutine per Cluster process calls Init, OnMessage, OnTimer and
// OnRecover one at a time, exactly as the engine does, so core.Fig8,
// core.Fig9, ohp.Detector and sim.Node stacks of them run unchanged.
type Host struct {
	c     *Cluster
	procs []sim.Process
	calls []chan func()
	done  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once
}

// Start launches procs[p] as process p of c. Crash processes with
// Cluster.Crash and revive them with Recover; Close stops the run.
func Start(c *Cluster, procs []sim.Process) *Host {
	if len(procs) != c.N() {
		panic(fmt.Sprintf("hruntime: %d processes for a cluster of %d", len(procs), c.N()))
	}
	h := &Host{c: c, procs: procs, calls: make([]chan func(), len(procs)), done: make(chan struct{})}
	for p := range procs {
		h.calls[p] = make(chan func())
	}
	h.wg.Add(len(procs))
	for p, proc := range procs {
		env := &hostEnv{h: h, p: p, rng: rand.New(rand.NewSource(c.opts.Seed + int64(p)))}
		go h.mailbox(p, proc, env)
	}
	return h
}

func (h *Host) mailbox(p int, proc sim.Process, env *hostEnv) {
	defer h.wg.Done()
	proc.Init(env)
	for {
		select {
		case <-h.done:
			return
		case m := <-h.c.Inbox(p):
			if h.c.Crashed(p) {
				h.c.record(trace.KindDrop, p, tagOf(m), "recipient crashed")
				continue
			}
			h.c.record(trace.KindDeliver, p, tagOf(m), "")
			proc.OnMessage(m)
		case f := <-h.calls[p]:
			f()
		}
	}
}

// post hands f to p's mailbox goroutine to run as its next step; after
// Close, f is discarded.
func (h *Host) post(p int, f func()) {
	select {
	case h.calls[p] <- f:
	case <-h.done:
	}
}

// Do runs f on p's mailbox goroutine, between two steps of the process,
// and waits for it: the way to read a process's state during a run. After
// Close, f runs on the caller's goroutine.
func (h *Host) Do(p int, f func()) {
	ran := make(chan struct{})
	h.post(p, func() { f(); close(ran) })
	select {
	case <-ran:
	case <-h.done:
		h.wg.Wait()
		select {
		case <-ran:
		default:
			f()
		}
	}
}

// Recover clears p's crash mark and calls OnRecover on its mailbox
// goroutine, as one step, like the engine's recover event. It does nothing
// if p is up.
func (h *Host) Recover(p int) {
	h.post(p, func() {
		if !h.c.setCrashed(p, false) {
			return
		}
		h.c.record(trace.KindRecover, p, "", "")
		if r, ok := h.procs[p].(sim.Recoverer); ok {
			r.OnRecover()
		}
	})
}

// Close stops every mailbox goroutine, then the cluster. Process state may
// be read directly once it returns.
func (h *Host) Close() {
	h.once.Do(func() { close(h.done) })
	h.wg.Wait()
	h.c.Close()
}

// hostEnv is process p's sim.Environment on a Host. Its methods run on p's
// mailbox goroutine, except the timer callbacks, which only post to it.
type hostEnv struct {
	h   *Host
	p   int
	rng *rand.Rand
}

var _ sim.Environment = (*hostEnv)(nil)

func (e *hostEnv) ID() ident.ID          { return e.h.c.ID(e.p) }
func (e *hostEnv) N() (int, bool)        { return e.h.c.N(), true }
func (e *hostEnv) Now() sim.Time         { return e.h.c.now() }
func (e *hostEnv) Rand() *rand.Rand      { return e.rng }
func (e *hostEnv) Broadcast(payload any) { e.h.c.Broadcast(e.p, payload) }
func (e *hostEnv) PID() sim.PID          { return sim.PID(e.p) }

func (e *hostEnv) Note(kind trace.Kind, tag, detail string) {
	e.h.c.record(kind, e.p, tag, detail)
}

// SetTimer arms a wall-clock timer; like the engine, it drops the firing
// if the process is down at expiry.
func (e *hostEnv) SetTimer(d sim.Time, tag int) {
	time.AfterFunc(time.Duration(max(d, 1))*Unit, func() {
		e.h.post(e.p, func() {
			if e.h.c.Crashed(e.p) {
				e.h.c.record(trace.KindTimerDrop, e.p, "", "")
				return
			}
			e.h.c.record(trace.KindTimer, e.p, "", "")
			e.h.procs[e.p].OnTimer(tag)
		})
	})
}
