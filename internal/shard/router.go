// Package shard partitions the chain's spend-key space across S
// shards, each owning a full vertical slice of the node stack: its own
// ledger state, mempool, and storage backend (per-shard WAL, chain,
// and MVCC clock). A footprint-driven router classifies every
// transaction at admission: one whose spent inputs and home all land
// on a single shard commits fully locally, with zero cross-shard
// coordination; one whose footprint spans shards runs a
// footprint-derived two-phase commit whose participants are exactly
// the shards owning its keys (twopc.go). A local block commits through
// the shard's node as a validator's does (server.Node.CommitNext), so
// an ACCEPT_BID's children land in the shard's own pool and commit in
// its next local blocks.
package shard

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"smartchaindb/internal/txn"
)

// MetaShardHint is the transaction-metadata key a submitter sets to
// direct a transaction's outputs to a specific shard ("shard": <id>).
// Without it a transaction homes with its first spent input — chain
// affinity keeps every single-input chain fully local — so a hinted
// transfer is the one way value migrates between shards, and the one
// source of cross-shard work.
const MetaShardHint = "shard"

// Directory answers which shard homes a committed transaction — and
// therefore owns its outputs' UTXO keys. It keeps no state of its own:
// the shards' chains are the one record of where a transaction lives.
// Only the home shard's log ever holds a transaction (a participant's
// share of a cross-shard transfer is spent marks only), so the home is
// the shard whose newest sealed transactions collection holds it, and a
// reopened cluster routes from what each shard recovered.
type Directory struct{ shards []*Shard }

// Lookup reports the shard owning transaction id.
func (d Directory) Lookup(id string) (int, bool) {
	for _, sh := range d.shards {
		if sh.Node.State().IsCommitted(id) {
			return sh.ID, true
		}
	}
	return 0, false
}

// Len reports the number of routed transactions: every shard's
// committed transactions.
func (d Directory) Len() int {
	n := 0
	for _, sh := range d.shards {
		n += sh.Node.State().TxCount()
	}
	return n
}

// placeByHash is the default placement for transactions with no spent
// inputs and no hint: a stable hash of the transaction ID.
func placeByHash(t *txn.Transaction, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(t.ID))
	return int(h.Sum32()) % shards
}

// hintOf extracts the shard hint from a transaction's metadata, if
// present, a whole number and in range. A client's hint is a JSON
// number (float64): a fraction is no hint, and the range is checked on
// the float64 before the conversion, which Go leaves undefined beyond
// int's range.
func hintOf(t *txn.Transaction, shards int) (int, bool) {
	raw, ok := t.Metadata[MetaShardHint]
	if !ok {
		return 0, false
	}
	var s int
	switch v := raw.(type) {
	case float64:
		if v != math.Trunc(v) || v < 0 || v >= float64(shards) {
			return 0, false
		}
		s = int(v)
	case int:
		s = v
	default:
		return 0, false
	}
	if s < 0 || s >= shards {
		return 0, false
	}
	return s, true
}

// Route is a classified transaction: its home shard (where the
// transaction document, outputs, and asset record land), the full
// participant set (home plus every shard owning a spent input), and the
// shard owning each spent input — what the 2PC holds and staging read,
// so each input is looked up in the directory once.
type Route struct {
	Home         int
	Participants []int // sorted, unique, always includes Home
	Inputs       []int // the owning shard of each spent input, in SpentRefs order
}

// Cross reports whether the route spans more than one shard.
func (r Route) Cross() bool { return len(r.Participants) > 1 }

// RouteOf classifies t against the directory. The home shard is the
// metadata hint if present, else the shard owning the first spent
// input (chain affinity), else hash placement. An unroutable spent
// input — no shard has its transaction — is an error: the input
// cannot exist anywhere. So is a reference homed on another shard
// than t: t's conditions read what it references (a BID's or an
// ACCEPT_BID's REQUEST, a child's parent) and a shard judges t by its
// own state, so an auction settles on the shard its REQUEST is homed
// on. A reference no shard homes is left to t's conditions, which
// refuse a reference that does not exist.
func (c *Cluster) RouteOf(t *txn.Transaction) (Route, error) {
	dir := c.Directory()
	inputHome := make([]int, 0, len(t.Inputs))
	for _, in := range t.Inputs {
		if in.Fulfills == nil {
			continue
		}
		s, ok := dir.Lookup(in.Fulfills.TxID)
		if !ok {
			return Route{}, &txn.InputDoesNotExistError{TxID: in.Fulfills.TxID}
		}
		inputHome = append(inputHome, s)
	}
	home, hinted := hintOf(t, len(c.shards))
	if !hinted {
		if len(inputHome) > 0 {
			home = inputHome[0]
		} else {
			home = placeByHash(t, len(c.shards))
		}
	}
	for _, id := range t.Refs {
		if s, ok := dir.Lookup(id); ok && s != home {
			return Route{}, fmt.Errorf("shard: %.8s references %.8s on shard %d but is homed on shard %d: a transaction and the transactions it references must be homed on one shard", t.ID, id, s, home)
		}
	}
	parts := make([]int, 1, 1+len(inputHome))
	parts[0] = home
	for _, s := range inputHome {
		if !slices.Contains(parts, s) {
			parts = append(parts, s)
		}
	}
	// Participant order matters to the 2PC lock/stage order only in
	// that it must be deterministic; sort by shard ID.
	slices.Sort(parts)
	return Route{Home: home, Participants: parts, Inputs: inputHome}, nil
}
