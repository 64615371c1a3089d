package hruntime

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/fd/ohp"
	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestClusterBroadcastDelivery(t *testing.T) {
	c := NewCluster(ident.Unique(3), Options{Seed: 1})
	defer c.Close()
	c.Broadcast(0, "hi")
	deadline := time.After(2 * time.Second)
	for p := 0; p < 3; p++ {
		select {
		case m := <-c.Inbox(p):
			if m != "hi" {
				t.Fatalf("payload = %v", m)
			}
		case <-deadline:
			t.Fatalf("process %d never received", p)
		}
	}
}

func TestClusterCrashSilences(t *testing.T) {
	c := NewCluster(ident.Unique(2), Options{Seed: 2})
	defer c.Close()
	c.Crash(0)
	c.Broadcast(0, "x") // ignored: sender dead
	c.Broadcast(1, "y")
	select {
	case m := <-c.Inbox(1):
		if m != "y" {
			t.Fatalf("got %v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery to live process")
	}
	select {
	case m := <-c.Inbox(0):
		t.Fatalf("crashed process received %v", m)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestClusterGSTLossAndRecovery(t *testing.T) {
	// With PreLoss=1 every pre-GST copy is dropped; after GST delivery
	// resumes within MaxDelay.
	c := NewCluster(ident.Unique(2), Options{
		Seed:     9,
		MinDelay: 100 * time.Microsecond,
		MaxDelay: 500 * time.Microsecond,
		GST:      50 * time.Millisecond,
		PreLoss:  1,
	})
	defer c.Close()
	c.Broadcast(0, "early")
	select {
	case m := <-c.Inbox(1):
		t.Fatalf("pre-GST message delivered despite PreLoss=1: %v", m)
	case <-time.After(20 * time.Millisecond):
	}
	time.Sleep(40 * time.Millisecond) // past GST
	c.Broadcast(0, "late")
	select {
	case m := <-c.Inbox(1):
		if m != "late" {
			t.Fatalf("got %v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("post-GST message never delivered")
	}
}

// probe counts its steps; the host test reads the counters through Do.
type probe struct {
	env                  sim.Environment
	msgs, timers, recovs int
}

func (q *probe) Init(env sim.Environment) { q.env = env; env.SetTimer(1, 0) }
func (q *probe) OnMessage(any)            { q.msgs++ }
func (q *probe) OnTimer(int)              { q.timers++; q.env.SetTimer(1, 0) }
func (q *probe) OnRecover()               { q.recovs++; q.env.SetTimer(1, 0) }

func TestHostCrashDropsTimersAndRecovers(t *testing.T) {
	rec := trace.NewRecorder()
	c := NewCluster(ident.Unique(1), Options{Seed: 3, Recorder: rec})
	q := &probe{}
	h := Start(c, []sim.Process{q})
	defer h.Close()
	count := func() (n int) { h.Do(0, func() { n = q.timers }); return }

	eventually(t, 2*time.Second, "first timer", func() bool { return count() > 0 })
	c.Crash(0)
	h.Do(0, func() {}) // any step in flight when the crash landed is done
	before := count()
	time.Sleep(20 * Unit)
	if got := count(); got != before {
		t.Fatalf("timers fired on a crashed process: %d → %d", before, got)
	}
	h.Recover(0)
	eventually(t, 2*time.Second, "timers after recovery", func() bool { return count() > before })
	h.Close()
	if q.recovs != 1 {
		t.Fatalf("OnRecover ran %d times, want 1", q.recovs)
	}
	s := rec.Stats()
	if s.TimerDrops == 0 || s.Recoveries != 1 || s.Crashes != 1 {
		t.Fatalf("trace stats %+v: want timer drops, 1 crash, 1 recovery", s)
	}
}

// eventually polls cond until it holds, failing the test after within.
func eventually(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached within %v", what, within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// liveDetectors hosts one Figure 6 detector per process.
func liveDetectors(ids ident.Assignment, opts Options) (*Cluster, *Host, []*ohp.Detector) {
	c := NewCluster(ids, opts)
	dets := make([]*ohp.Detector, len(ids))
	procs := make([]sim.Process, len(ids))
	for p := range ids {
		dets[p] = ohp.New()
		procs[p] = dets[p]
	}
	return c, Start(c, procs), dets
}

// trusts reports whether p's h_trusted equals want, read on p's mailbox
// goroutine; withLeader additionally requires HΩ (Corollary 2) to elect
// want's smallest identifier with its multiplicity.
func trusts(h *Host, d *ohp.Detector, p int, want *multiset.Multiset[ident.ID], withLeader bool) (ok bool) {
	h.Do(p, func() {
		ok = d.Trusted().Equal(want)
		if ok && withLeader {
			id, _ := want.Min()
			li, has := d.Leader()
			ok = has && li == fd.LeaderInfo{ID: id, Multiplicity: want.Count(id)}
		}
	})
	return ok
}

func TestLiveOHPConverges(t *testing.T) {
	ids := ident.Assignment{"a", "a", "b"}
	c, h, dets := liveDetectors(ids, Options{Seed: 4, MinDelay: 100 * time.Microsecond, MaxDelay: 500 * time.Microsecond})
	defer h.Close()

	// Crash p2 ("b") after a while; survivors must converge on {a, a}.
	time.Sleep(100 * time.Millisecond)
	c.Crash(2)
	want := multiset.From[ident.ID]("a", "a")
	eventually(t, 8*time.Second, "◇HP̄ convergence after a crash", func() bool {
		return trusts(h, dets[0], 0, want, true) && trusts(h, dets[1], 1, want, true)
	})
}

func TestOHPDetectorToleratesPreGSTLoss(t *testing.T) {
	// The Figure 6 detector must converge even when every message before
	// GST is lost — Theorem 5 needs only the post-GST suffix.
	ids := ident.Assignment{"a", "a", "b"}
	_, h, dets := liveDetectors(ids, Options{
		Seed:     10,
		MinDelay: 100 * time.Microsecond,
		MaxDelay: 400 * time.Microsecond,
		GST:      40 * time.Millisecond,
		PreLoss:  1,
	})
	defer h.Close()
	want := ids.I()
	eventually(t, 10*time.Second, "◇HP̄ convergence after a pre-GST blackout", func() bool {
		for p := range dets {
			if !trusts(h, dets[p], p, want, false) {
				return false
			}
		}
		return true
	})
}

// fault is one live crash of process p after the given delay, or its
// recovery when up is set.
type fault struct {
	p     int
	after time.Duration
	up    bool
}

// decider is a hosted consensus instance's outcome query.
type decider interface{ Decided() core.Outcome }

func proposal(p int) core.Value { return core.Value(fmt.Sprintf("v%d", p)) }

// liveConsensus hosts the stacks build returns on a fresh cluster over
// ids, applies the faults, and waits until every process not left down
// has decided. It then verifies the run from its recorded trace alone —
// the outcomes the trace's decide events reconstruct must match every
// instance's Decided(), and check.ConsensusChurn must pass over the fault
// pattern the trace's crash/recover events describe — and returns both.
func liveConsensus(t *testing.T, ids ident.Assignment, seed int64, faults []fault,
	build func(c *Cluster) ([]sim.Process, []decider)) ([]core.Outcome, *fd.GroundTruth) {
	t.Helper()
	n := ids.N()
	rec := trace.NewRecorder()
	c := NewCluster(ids, Options{Seed: seed, MinDelay: 100 * time.Microsecond, MaxDelay: 600 * time.Microsecond, Recorder: rec})
	procs, insts := build(c)
	h := Start(c, procs)
	defer h.Close()

	sort.SliceStable(faults, func(i, j int) bool { return faults[i].after < faults[j].after })
	down := make([]bool, n)
	for _, f := range faults {
		down[f.p] = !f.up
	}
	applied := make(chan struct{})
	go func() {
		defer close(applied)
		start := time.Now()
		for _, f := range faults {
			time.Sleep(time.Until(start.Add(f.after)))
			if f.up {
				h.Recover(f.p)
			} else {
				c.Crash(f.p)
			}
		}
	}()
	eventually(t, 30*time.Second, "termination", func() bool {
		for p := range insts {
			var decided bool
			h.Do(p, func() { decided = insts[p].Decided().Decided })
			if !down[p] && !decided {
				return false
			}
		}
		return true
	})
	<-applied
	h.Close()

	tracker := check.NewOutcomeTracker(n)
	var churn []sim.ChurnEvent
	for _, e := range rec.Events() {
		tracker.Observe(e)
		if e.Kind == trace.KindCrash || e.Kind == trace.KindRecover {
			churn = append(churn, sim.ChurnEvent{P: sim.PID(e.PID), At: e.Time, Recover: e.Kind == trace.KindRecover})
		}
	}
	if err := tracker.Err(); err != nil {
		t.Fatalf("trace decide events: %v", err)
	}
	outcomes := tracker.Outcomes()
	proposals := make([]core.Value, n)
	for p := range insts {
		proposals[p] = proposal(p)
		got, want := outcomes[p], insts[p].Decided()
		if got.Decided != want.Decided || got.Value != want.Value || got.Round != want.Round || got.Relayed != want.Relayed {
			t.Fatalf("p%d: trace reconstructs %+v, instance reports %+v", p, got, want)
		}
	}
	truth := fd.NewGroundTruthFromChurn(ids, churn)
	if _, err := check.ConsensusChurn(truth, proposals, outcomes); err != nil {
		t.Fatal(err)
	}
	return outcomes, truth
}

// fig8OverOHP builds the paper's partial-synchrony stack on every process:
// the Figure 6 detector (◇HP̄ → HΩ) under Figure 8 consensus.
func fig8OverOHP(tt int) func(*Cluster) ([]sim.Process, []decider) {
	return func(c *Cluster) ([]sim.Process, []decider) {
		procs, insts := make([]sim.Process, c.N()), make([]decider, c.N())
		for p := range procs {
			det := ohp.New()
			cons := core.NewFig8(det, tt, proposal(p))
			procs[p], insts[p] = sim.NewNode().Add("fd", det).Add("consensus", cons), cons
		}
		return procs, insts
	}
}

// deciders counts the decided outcomes.
func deciders(outcomes []core.Outcome) int {
	k := 0
	for _, o := range outcomes {
		if o.Decided {
			k++
		}
	}
	return k
}

func TestLiveConsensusFailureFree(t *testing.T) {
	outcomes, _ := liveConsensus(t, ident.Balanced(4, 2), 5, nil, fig8OverOHP(1))
	if deciders(outcomes) != 4 {
		t.Fatalf("outcomes %+v: want 4 deciders", outcomes)
	}
}

func TestLiveConsensusWithCrash(t *testing.T) {
	liveConsensus(t, ident.Balanced(5, 2), 6, []fault{{p: 3, after: 5 * time.Millisecond}}, fig8OverOHP(2))
}

func TestLiveConsensusAnonymous(t *testing.T) {
	liveConsensus(t, ident.AnonymousN(3), 7, nil, fig8OverOHP(1))
}

// TestLiveConsensusCrashRecovery runs the rejoin protocol live: a process
// crashes early and recovers later, and every process — the rejoiner
// included — must decide, as the recorded trace alone certifies.
func TestLiveConsensusCrashRecovery(t *testing.T) {
	ids := ident.Assignment{"ant", "ant", "bee", "bee", "cat"}
	faults := []fault{{p: 1, after: 5 * time.Millisecond}, {p: 1, after: 60 * time.Millisecond, up: true}}
	outcomes, truth := liveConsensus(t, ids, 8, faults, fig8OverOHP(2))
	if got := len(truth.EventuallyUp()); got != ids.N() {
		t.Fatalf("%d of %d processes eventually up, want all", got, ids.N())
	}
	if deciders(outcomes) != ids.N() {
		t.Fatalf("outcomes %+v: want every process decided", outcomes)
	}
}
