package ethchain

import (
	"crypto/sha3"
	"encoding/hex"
	"fmt"
	"time"

	"smartchaindb/internal/consensus"
	"smartchaindb/internal/netsim"
)

// ClusterConfig parameterizes the Quorum/IBFT-style baseline network.
type ClusterConfig struct {
	// Nodes is the validator count.
	Nodes int
	// BlockPeriod is the IBFT block interval (Quorum defaults to ~1-5s;
	// the experiments use 5s).
	BlockPeriod time.Duration
	// BlockGasLimit caps the gas packed into one block (Ethereum
	// mainnet uses 30M).
	BlockGasLimit uint64
	// GasPerSecond is the sequential execution speed of a validator —
	// the gas→time model (EVM nodes process on the order of tens of
	// millions of gas per second).
	GasPerSecond float64
	// ReceiverTime is the fixed RPC/admission overhead per transaction.
	ReceiverTime time.Duration
	// Latency models inter-validator delay.
	Latency netsim.LatencyModel
	// Seed drives all randomness.
	Seed int64
}

func (c *ClusterConfig) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.BlockPeriod <= 0 {
		c.BlockPeriod = 5 * time.Second
	}
	if c.BlockGasLimit == 0 {
		c.BlockGasLimit = 30_000_000
	}
	if c.GasPerSecond <= 0 {
		c.GasPerSecond = 15_000_000
	}
	if c.ReceiverTime <= 0 {
		c.ReceiverTime = 2 * time.Millisecond
	}
}

// app adapts a Chain to the consensus engine: speculative block
// execution on a clone during validation, adoption at commit.
type app struct {
	cfg   ClusterConfig
	chain *Chain

	// speculative post-states keyed by block content hash
	staged map[string]*staged
}

type staged struct {
	post     *Chain
	receipts []*Receipt
	gasUsed  uint64
}

func blockKey(txs []consensus.Tx) string {
	h := sha3.New256()
	for _, tx := range txs {
		h.Write([]byte(tx.Hash()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (a *app) CheckTx(tx consensus.Tx) error {
	t, ok := tx.(*Tx)
	if !ok {
		return fmt.Errorf("ethchain: unexpected tx type %T", tx)
	}
	// Ethereum-style intrinsic checks: a call must fit the block.
	if t.Kind != KindNativeTransfer && t.GasLimit > a.cfg.BlockGasLimit {
		return fmt.Errorf("ethchain: gas limit %d exceeds block gas limit %d", t.GasLimit, a.cfg.BlockGasLimit)
	}
	return nil
}

// execute runs the block speculatively (once per block content) and
// caches the post-state.
func (a *app) execute(txs []consensus.Tx) *staged {
	key := blockKey(txs)
	if st, ok := a.staged[key]; ok {
		return st
	}
	post := a.chain.Clone()
	ethTxs := make([]*Tx, 0, len(txs))
	for _, tx := range txs {
		if t, ok := tx.(*Tx); ok {
			ethTxs = append(ethTxs, t)
		}
	}
	receipts, gasUsed := post.ExecuteBlock(ethTxs)
	st := &staged{post: post, receipts: receipts, gasUsed: gasUsed}
	a.staged[key] = st
	return st
}

func (a *app) ValidateBlock(txs []consensus.Tx) []consensus.Tx {
	// Ethereum includes failed transactions; execution itself is the
	// validation. Nothing is excluded here.
	a.execute(txs)
	return nil
}

func (a *app) ReceiverTime(consensus.Tx) time.Duration { return a.cfg.ReceiverTime }

// ValidationTime is the sequential execution time of the block: total
// gas divided by the node's gas throughput — the heart of the gas→time
// model.
func (a *app) ValidationTime(txs []consensus.Tx) time.Duration {
	st := a.execute(txs)
	return time.Duration(float64(st.gasUsed) / a.cfg.GasPerSecond * float64(time.Second))
}

func (a *app) Commit(height int64, txs []consensus.Tx) {
	st := a.execute(txs)
	a.chain = st.post
	// Drop stale speculative states.
	a.staged = map[string]*staged{}
}

// Cluster is the simulated baseline network.
type Cluster struct {
	*consensus.Cluster
	apps []*app
	cfg  ClusterConfig

	nonce uint64
}

// NewCluster builds an IBFT-style baseline cluster whose genesis runs
// fn (e.g. contract deployment) on every replica identically.
func NewCluster(cfg ClusterConfig, genesis func(*Chain)) *Cluster {
	cfg.fill()
	c := &Cluster{cfg: cfg}
	c.apps = make([]*app, cfg.Nodes)
	packer := func(pending []consensus.Tx) []consensus.Tx {
		var block []consensus.Tx
		var gas uint64
		for _, tx := range pending {
			t, ok := tx.(*Tx)
			if !ok {
				continue
			}
			cost := t.GasLimit
			if t.Kind == KindNativeTransfer {
				cost = NativeTransferGas
			}
			if len(block) > 0 && gas+cost > cfg.BlockGasLimit {
				break
			}
			block = append(block, tx)
			gas += cost
		}
		return block
	}
	cc := consensus.NewCluster(consensus.Config{
		Nodes:         cfg.Nodes,
		BlockInterval: cfg.BlockPeriod,
		MaxBlockTxs:   1 << 30, // gas-limited, not count-limited
		Packer:        packer,
		Pipelined:     false, // IBFT finalizes sequentially
		Latency:       cfg.Latency,
		Seed:          cfg.Seed,
	}, func(i int) consensus.App {
		chain := NewChain()
		if genesis != nil {
			genesis(chain)
		}
		a := &app{cfg: cfg, chain: chain, staged: map[string]*staged{}}
		c.apps[i] = a
		return consensus.Lift(a)
	})
	c.Cluster = cc
	return c
}

// Chain returns validator i's current chain state (read-only use).
func (c *Cluster) Chain(i int) *Chain { return c.apps[i].chain }

// NextNonce hands out client-side nonces so otherwise-identical
// transactions stay distinct.
func (c *Cluster) NextNonce() uint64 {
	c.nonce++
	return c.nonce
}

// Receipt finds the receipt for a committed transaction on any node.
func (c *Cluster) Receipt(txID string) (*Receipt, bool) {
	for _, a := range c.apps {
		if r, ok := a.chain.Receipt(txID); ok {
			return r, true
		}
	}
	return nil, false
}

// Submit schedules a client submission now.
func (c *Cluster) Submit(tx *Tx) { c.SubmitAt(c.Sched().Now(), tx) }
