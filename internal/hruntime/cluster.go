package hruntime

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Options configure a Cluster.
type Options struct {
	// MinDelay/MaxDelay bound each copy's delivery latency.
	// Defaults: 200µs .. 2ms.
	MinDelay, MaxDelay time.Duration
	// GST, when positive, enables partially synchronous behaviour: copies
	// sent before start+GST are dropped with probability PreLoss (0 keeps
	// links reliable, as the consensus layer requires) or delayed up to
	// 4×MaxDelay; copies sent after arrive within MaxDelay.
	GST     time.Duration
	PreLoss float64
	// Seed drives the delay/loss randomness.
	Seed int64
	// Recorder, when non-nil, receives trace events stamped in Units.
	Recorder *trace.Recorder
	// InboxSize is the per-process buffer (default 4096).
	InboxSize int
}

// Cluster is the live broadcast network for one run.
type Cluster struct {
	ids   ident.Assignment
	opts  Options
	start time.Time

	mu       sync.Mutex
	rng      *rand.Rand
	crashed  []bool
	isClosed bool

	inboxes []chan any
	done    chan struct{}
	wg      sync.WaitGroup
	closed  sync.Once
}

// NewCluster builds the network for the given identity assignment.
func NewCluster(ids ident.Assignment, opts Options) *Cluster {
	if err := ids.Validate(); err != nil {
		panic("hruntime: " + err.Error())
	}
	if opts.MinDelay <= 0 {
		opts.MinDelay = 200 * time.Microsecond
	}
	if opts.MaxDelay < opts.MinDelay {
		opts.MaxDelay = 10 * opts.MinDelay
	}
	if opts.InboxSize <= 0 {
		opts.InboxSize = 4096
	}
	c := &Cluster{
		ids:     ids,
		opts:    opts,
		start:   time.Now(),
		rng:     rand.New(rand.NewSource(opts.Seed)),
		crashed: make([]bool, ids.N()),
		inboxes: make([]chan any, ids.N()),
		done:    make(chan struct{}),
	}
	for i := range c.inboxes {
		c.inboxes[i] = make(chan any, opts.InboxSize)
	}
	return c
}

// N returns the system size (the runtime knows it; whether an algorithm
// may use it is the algorithm's contract).
func (c *Cluster) N() int { return c.ids.N() }

// ID returns id(p) for process index p.
func (c *Cluster) ID(p int) ident.ID { return c.ids[p] }

// IDs returns the identity assignment.
func (c *Cluster) IDs() ident.Assignment { return c.ids }

// Inbox returns process p's receive channel. Copies that reach it are
// not traced here: their consumer (a Host) records each one as delivered
// or, if p is down by then, dropped.
func (c *Cluster) Inbox(p int) <-chan any { return c.inboxes[p] }

// Crash marks p crashed: its future broadcasts are ignored and nothing
// more is delivered to it. Host.Recover brings it back.
func (c *Cluster) Crash(p int) {
	if c.setCrashed(p, true) {
		c.record(trace.KindCrash, p, "", "")
	}
}

// setCrashed sets p's crash mark and reports whether it changed.
func (c *Cluster) setCrashed(p int, down bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	changed := c.crashed[p] != down
	c.crashed[p] = down
	return changed
}

// Crashed reports whether p crashed.
func (c *Cluster) Crashed(p int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed[p]
}

// Broadcast sends payload from process `from` to every process including
// the sender, each copy after its own random delay. Crashed senders are
// silently ignored (they "take no steps").
func (c *Cluster) Broadcast(from int, payload any) {
	c.mu.Lock()
	if c.crashed[from] || c.isClosed {
		c.mu.Unlock()
		return
	}
	type plan struct {
		to    int
		delay time.Duration
		drop  bool
	}
	plans := make([]plan, 0, len(c.inboxes))
	for to := range c.inboxes {
		d, ok := c.drawDelay()
		plans = append(plans, plan{to: to, delay: d, drop: !ok})
	}
	// Register deliveries while still holding the lock: Close sets
	// isClosed under the same lock before waiting, so no wg.Add can race
	// its wg.Wait.
	live := 0
	for _, pl := range plans {
		if !pl.drop {
			live++
		}
	}
	c.wg.Add(live)
	c.mu.Unlock()

	c.record(trace.KindBroadcast, from, tagOf(payload), "")
	for _, pl := range plans {
		if pl.drop {
			continue
		}
		go c.deliver(pl.to, payload, pl.delay)
	}
}

// drawDelay picks one copy's latency; callers hold c.mu.
func (c *Cluster) drawDelay() (time.Duration, bool) {
	span := c.opts.MaxDelay - c.opts.MinDelay
	uniform := func(max time.Duration) time.Duration {
		if max <= 0 {
			return 0
		}
		return time.Duration(c.rng.Int63n(int64(max) + 1))
	}
	if c.opts.GST > 0 && time.Since(c.start) < c.opts.GST {
		if c.rng.Float64() < c.opts.PreLoss {
			return 0, false
		}
		return c.opts.MinDelay + uniform(4*c.opts.MaxDelay), true
	}
	return c.opts.MinDelay + uniform(span), true
}

func (c *Cluster) deliver(to int, payload any, after time.Duration) {
	defer c.wg.Done()
	t := time.NewTimer(after)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.done:
		return
	}
	if c.Crashed(to) {
		c.record(trace.KindDrop, to, tagOf(payload), "recipient crashed")
		return
	}
	select {
	case c.inboxes[to] <- payload:
	case <-c.done:
	}
}

// Close stops all pending deliveries and waits for delivery goroutines to
// exit; subsequent broadcasts are ignored. Processes blocked on their
// inbox must be released by their own contexts/deadlines; Close never
// closes inbox channels (receivers may still drain them).
func (c *Cluster) Close() {
	c.closed.Do(func() {
		c.mu.Lock()
		c.isClosed = true
		c.mu.Unlock()
		close(c.done)
	})
	c.wg.Wait()
}

// now is the elapsed time since the cluster started, in Units.
func (c *Cluster) now() sim.Time { return sim.Time(time.Since(c.start) / Unit) }

// record stamps and records one event when a Recorder is attached.
func (c *Cluster) record(kind trace.Kind, p int, tag, detail string) {
	if c.opts.Recorder != nil {
		c.opts.Recorder.Record(trace.Event{Time: c.now(), Kind: kind, PID: p, MsgTag: tag, Detail: detail})
	}
}

func tagOf(payload any) string {
	type tagger interface{ MsgTag() string }
	if t, ok := payload.(tagger); ok {
		return t.MsgTag()
	}
	return "?"
}
