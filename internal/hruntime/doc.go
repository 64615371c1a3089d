// Package hruntime is a live, goroutine-per-process runtime for the
// paper's algorithms: real concurrency, real channels, real timeouts. It
// hosts the same event-driven state machines the deterministic simulator
// (internal/sim) runs — core.Fig8, core.Fig9, ohp.Detector and sim.Node
// stacks of them — so each algorithm has one implementation and two
// hosts. The partialsync example runs on this runtime.
//
// A Cluster is the broadcast network: it owns one inbox per process and
// delivers every broadcast copy after a per-copy random delay, optionally
// with partially-synchronous semantics (copies sent before GST may be
// dropped; copies sent after are delivered within Delta). Crashing a
// process stops its deliveries and its sends, as in the model.
//
// A Host implements sim.Environment over a Cluster: one mailbox goroutine
// per process runs Init, OnMessage, OnTimer and OnRecover one at a time,
// timers are wall-clock timers, and virtual time is elapsed real time in
// Units. Crashed processes lose their messages and timers, and
// Host.Recover restarts one through OnRecover, so the rejoin protocol and
// detector recovery run live. Runs are nondeterministic; a recorded trace
// (events stamped in Units) is checked for the consensus properties, not
// for byte-identity.
package hruntime
