// Package netsim simulates the validator network: message passing with
// configurable latency distributions, node crashes and restarts, and
// partitions, all on the deterministic simclock scheduler. It stands in
// for the Digital Ocean VM clusters of the paper's evaluation, giving
// the experiments controllable node counts and reproducible timing.
package netsim

import (
	"fmt"
	"time"

	"smartchaindb/internal/simclock"
)

// NodeID identifies a simulated node.
type NodeID int

// Message is what travels between nodes.
type Message struct {
	From    NodeID
	To      NodeID
	Payload any
}

// Handler consumes a delivered message on the receiving node.
type Handler func(msg Message)

// LatencyModel samples the one-way delivery delay for a message.
type LatencyModel interface {
	Sample(from, to NodeID, rng interface{ Float64() float64 }) time.Duration
}

// UniformLatency delays every message by Base plus uniform jitter in
// [0, Jitter). Local loopback (from == to) is free.
type UniformLatency struct {
	Base   time.Duration
	Jitter time.Duration
}

// Sample implements LatencyModel.
func (u UniformLatency) Sample(from, to NodeID, rng interface{ Float64() float64 }) time.Duration {
	if from == to {
		return 0
	}
	d := u.Base
	if u.Jitter > 0 {
		d += time.Duration(rng.Float64() * float64(u.Jitter))
	}
	return d
}

// Network connects nodes over a latency model with fault injection.
type Network struct {
	sched    *simclock.Scheduler
	latency  LatencyModel
	handlers map[NodeID]Handler
	ids      []NodeID // registration order, for deterministic broadcast
	down     map[NodeID]bool
	cut      map[[2]NodeID]bool // severed directed links

	// Stats
	sent      int
	delivered int
	dropped   int
}

// New creates a network on the given scheduler and latency model.
func New(sched *simclock.Scheduler, latency LatencyModel) *Network {
	return &Network{
		sched:    sched,
		latency:  latency,
		handlers: make(map[NodeID]Handler),
		down:     make(map[NodeID]bool),
		cut:      make(map[[2]NodeID]bool),
	}
}

// Scheduler returns the underlying scheduler.
func (n *Network) Scheduler() *simclock.Scheduler { return n.sched }

// AddNode registers a node and its message handler.
func (n *Network) AddNode(id NodeID, h Handler) {
	if _, dup := n.handlers[id]; dup {
		// invariant: cluster assembly numbers its nodes once; a duplicate would silently drop the first handler.
		panic(fmt.Sprintf("netsim: node %d already registered", id))
	}
	n.handlers[id] = h
	n.ids = append(n.ids, id)
}

// Nodes returns the registered node count.
func (n *Network) Nodes() int { return len(n.handlers) }

// Send schedules delivery of payload from -> to after a sampled
// latency. Messages from or to crashed nodes, or across severed links,
// are dropped silently — the failure mode BFT consensus must tolerate.
func (n *Network) Send(from, to NodeID, payload any) {
	n.sent++
	if n.down[from] || n.cut[[2]NodeID{from, to}] {
		n.dropped++
		return
	}
	delay := n.latency.Sample(from, to, n.sched.Rand())
	msg := Message{From: from, To: to, Payload: payload}
	n.sched.After(delay, func() {
		// Crash state is evaluated at delivery time: a node that went
		// down while the message was in flight never sees it.
		if n.down[to] {
			n.dropped++
			return
		}
		h, ok := n.handlers[to]
		if !ok {
			n.dropped++
			return
		}
		n.delivered++
		h(msg)
	})
}

// Broadcast sends payload from one node to every other node (not
// itself), in registration order so runs stay deterministic.
func (n *Network) Broadcast(from NodeID, payload any) {
	for _, id := range n.ids {
		if id != from {
			n.Send(from, id, payload)
		}
	}
}

// Crash takes a node offline: it neither sends nor receives until
// restarted.
func (n *Network) Crash(id NodeID) { n.down[id] = true }

// Restart brings a crashed node back online.
func (n *Network) Restart(id NodeID) { delete(n.down, id) }

// IsDown reports whether the node is crashed.
func (n *Network) IsDown(id NodeID) bool { return n.down[id] }

// DownCount returns the number of crashed nodes.
func (n *Network) DownCount() int { return len(n.down) }

// CutLink severs the directed link a -> b.
func (n *Network) CutLink(a, b NodeID) { n.cut[[2]NodeID{a, b}] = true }

// HealLink restores the directed link a -> b.
func (n *Network) HealLink(a, b NodeID) { delete(n.cut, [2]NodeID{a, b}) }

// Partition severs every link between the two groups, both directions.
func (n *Network) Partition(groupA, groupB []NodeID) {
	for _, a := range groupA {
		for _, b := range groupB {
			n.CutLink(a, b)
			n.CutLink(b, a)
		}
	}
}

// Heal restores all severed links.
func (n *Network) Heal() { n.cut = make(map[[2]NodeID]bool) }

// Stats reports message counters: sent, delivered, dropped.
func (n *Network) Stats() (sent, delivered, dropped int) {
	return n.sent, n.delivered, n.dropped
}
