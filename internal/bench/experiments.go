package bench

import (
	"fmt"
	"io"
	"time"

	"smartchaindb/internal/ethchain"
	"smartchaindb/internal/minisol"
	"smartchaindb/internal/netsim"
)

// PayloadSizes is the transaction-size axis of Experiment 1 (Figure 7):
// 0.11 KB up to 1.74 KB, the paper's largest point.
var PayloadSizes = []int{112, 371, 743, 1114, 1486, 1740}

// ClusterSizes is the validator-count axis of Experiment 2 (Figure 8).
var ClusterSizes = []int{4, 8, 16, 32}

// Fig8PayloadBytes is the fixed transaction size of Experiment 2
// (1.09 KB in the paper).
const Fig8PayloadBytes = 1114

// Fig2Result compares the native TRANSFER primitive with its
// smart-contract equivalent (Figure 2).
type Fig2Result struct {
	NativeGas       uint64
	ContractGas     uint64
	GasOverheadPct  float64
	NativeLatency   time.Duration
	ContractLatency time.Duration
	LatencyRatio    float64
}

// RunFig2 measures gas and commit latency for a native value transfer
// vs the Token contract's transfer method on the same IBFT cluster.
func RunFig2(seed int64) (Fig2Result, error) {
	src, err := ethchain.ContractSource("token")
	if err != nil {
		return Fig2Result{}, err
	}
	deployTx := &ethchain.Tx{Kind: ethchain.KindDeploy, From: "minter", Source: src, Contract: "Token", Nonce: 1}
	addr := ethchain.ContractAddr(deployTx)
	cluster := ethchain.NewCluster(ethchain.ClusterConfig{
		Nodes:        4,
		BlockPeriod:  250 * time.Millisecond,
		GasPerSecond: 2_000_000,
		Latency:      netsim.UniformLatency{Base: 12 * time.Millisecond, Jitter: 6 * time.Millisecond},
		Seed:         seed,
	}, func(c *ethchain.Chain) {
		c.Execute(deployTx)
		c.Fund("alice", 1_000_000)
	})

	// Fund both parties so the contract transfer touches warm slots,
	// matching the paper's steady-state measurement.
	mintA := &ethchain.Tx{Kind: ethchain.KindCall, From: "minter", To: addr, Fn: "mint",
		Args: []minisol.Value{minisol.Addr("alice"), minisol.Int(1000)}, GasLimit: 1_000_000, Nonce: cluster.NextNonce()}
	mintB := &ethchain.Tx{Kind: ethchain.KindCall, From: "minter", To: addr, Fn: "mint",
		Args: []minisol.Value{minisol.Addr("bob"), minisol.Int(1000)}, GasLimit: 1_000_000, Nonce: cluster.NextNonce()}
	cluster.Submit(mintA)
	cluster.Submit(mintB)
	if got := cluster.RunUntilCommitted(2, time.Hour); got != 2 {
		return Fig2Result{}, fmt.Errorf("bench: mint did not commit")
	}

	native := &ethchain.Tx{Kind: ethchain.KindNativeTransfer, From: "alice", To: "bob", Amount: 10, Nonce: cluster.NextNonce()}
	cluster.Submit(native)
	if got := cluster.RunUntilCommitted(3, cluster.Sched().Now()+time.Hour); got != 3 {
		return Fig2Result{}, fmt.Errorf("bench: native transfer did not commit")
	}
	contract := &ethchain.Tx{Kind: ethchain.KindCall, From: "alice", To: addr, Fn: "transfer",
		Args: []minisol.Value{minisol.Addr("bob"), minisol.Int(10)}, GasLimit: 1_000_000, Nonce: cluster.NextNonce()}
	cluster.Submit(contract)
	if got := cluster.RunUntilCommitted(4, cluster.Sched().Now()+time.Hour); got != 4 {
		return Fig2Result{}, fmt.Errorf("bench: contract transfer did not commit")
	}

	var res Fig2Result
	if r, ok := cluster.Receipt(native.Hash()); ok {
		res.NativeGas = r.GasUsed
	}
	if r, ok := cluster.Receipt(contract.Hash()); ok {
		if r.Failed() {
			return res, fmt.Errorf("bench: contract transfer reverted: %v", r.Err)
		}
		res.ContractGas = r.GasUsed
	}
	res.GasOverheadPct = (float64(res.ContractGas)/float64(res.NativeGas) - 1) * 100
	res.NativeLatency, _ = cluster.Latency(native.Hash())
	res.ContractLatency, _ = cluster.Latency(contract.Hash())
	if res.NativeLatency > 0 {
		res.LatencyRatio = float64(res.ContractLatency) / float64(res.NativeLatency)
	}
	return res, nil
}

// Fig7Row is one payload-size point of Experiment 1, covering Figures
// 7a (REQUEST/CREATE latency), 7b (BID/ACCEPT_BID latency), and 7c
// (throughput).
type Fig7Row struct {
	PayloadBytes int
	SCDB         SCDBResult
	ETH          ETHResult
}

// Fig7Scale shrinks the workload for quick runs; 1 = bench default.
// Workers is every SmartchainDB validator's pipeline worker count
// (admission, validation, packing), so the headline curves reflect it;
// zero or one runs the same pipeline on one worker.
type Fig7Scale struct {
	Auctions int
	Bidders  int
	Workers  int
}

// RunFig7 sweeps payload sizes on both systems.
func RunFig7(sizes []int, scale Fig7Scale, seed int64) ([]Fig7Row, error) {
	if scale.Auctions <= 0 {
		scale.Auctions = 4
	}
	if scale.Bidders <= 0 {
		scale.Bidders = 10
	}
	rows := make([]Fig7Row, 0, len(sizes))
	for i, size := range sizes {
		scdb := RunSCDB(SCDBParams{
			Nodes: 4, PayloadBytes: size,
			Auctions: scale.Auctions, Bidders: scale.Bidders,
			Workers: scale.Workers,
			Seed:    seed + int64(i),
		})
		eth, err := RunETH(ETHParams{
			Nodes: 4, PayloadBytes: size,
			Auctions: scale.Auctions, Bidders: scale.Bidders,
			Seed: seed + 100 + int64(i),
		})
		if err != nil {
			return nil, fmt.Errorf("bench: fig7 size %d: %w", size, err)
		}
		rows = append(rows, Fig7Row{PayloadBytes: size, SCDB: scdb, ETH: eth})
	}
	return rows, nil
}

// Fig8Row is one cluster-size point of Experiment 2 (Figures 8a-8c).
type Fig8Row struct {
	Nodes int
	SCDB  SCDBResult
	ETH   ETHResult
}

// RunFig8 sweeps validator counts at the fixed 1.09 KB payload.
func RunFig8(nodeCounts []int, scale Fig7Scale, seed int64) ([]Fig8Row, error) {
	if scale.Auctions <= 0 {
		scale.Auctions = 4
	}
	if scale.Bidders <= 0 {
		scale.Bidders = 10
	}
	rows := make([]Fig8Row, 0, len(nodeCounts))
	for i, n := range nodeCounts {
		scdb := RunSCDB(SCDBParams{
			Nodes: n, PayloadBytes: Fig8PayloadBytes,
			Auctions: scale.Auctions, Bidders: scale.Bidders,
			Workers: scale.Workers,
			Seed:    seed + int64(i),
		})
		eth, err := RunETH(ETHParams{
			Nodes: n, PayloadBytes: Fig8PayloadBytes,
			Auctions: scale.Auctions, Bidders: scale.Bidders,
			Seed: seed + 100 + int64(i),
		})
		if err != nil {
			return nil, fmt.Errorf("bench: fig8 nodes %d: %w", n, err)
		}
		rows = append(rows, Fig8Row{Nodes: n, SCDB: scdb, ETH: eth})
	}
	return rows, nil
}

// UsabilityResult is the §5.2.2 lines-of-code comparison.
type UsabilityResult struct {
	ContractLines    int // hand-written smart-contract lines
	DeclarativeLines int // user code required by SmartchainDB: none
}

// RunUsability counts the meaningful source lines of the marketplace
// contract. SmartchainDB needs zero user-implemented lines: the
// marketplace primitives are native transaction types.
func RunUsability() (UsabilityResult, error) {
	src, err := ethchain.ContractSource("marketplace")
	if err != nil {
		return UsabilityResult{}, err
	}
	prog, err := minisol.Compile(src)
	if err != nil {
		return UsabilityResult{}, err
	}
	return UsabilityResult{
		ContractLines:    prog.File.Contracts[0].SourceLines,
		DeclarativeLines: 0,
	}, nil
}

// Printing helpers -----------------------------------------------------

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// PrintFig2 renders the Figure 2 comparison.
func PrintFig2(w io.Writer, r Fig2Result) {
	fmt.Fprintln(w, "Figure 2 — TRANSFER: native primitive vs smart contract (ETH-SC)")
	fmt.Fprintf(w, "  %-22s %12s %14s\n", "variant", "gas", "latency(ms)")
	fmt.Fprintf(w, "  %-22s %12d %14.1f\n", "native TRANSFER", r.NativeGas, ms(r.NativeLatency))
	fmt.Fprintf(w, "  %-22s %12d %14.1f\n", "contract transfer()", r.ContractGas, ms(r.ContractLatency))
	fmt.Fprintf(w, "  gas overhead: +%.0f%%   (paper: +40%%)\n", r.GasOverheadPct)
	fmt.Fprintf(w, "  latency ratio: %.2fx\n\n", r.LatencyRatio)
}

var fig7Ops = []string{"CREATE", "REQUEST", "BID", "ACCEPT_BID"}

// PrintFig7 renders Figures 7a, 7b and 7c as one table per figure.
func PrintFig7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintln(w, "Figure 7a — latency vs transaction size: REQUEST and CREATE (ms)")
	fmt.Fprintf(w, "  %-10s %14s %14s %14s %14s\n", "size(KB)", "SCDB CREATE", "ETH CREATE", "SCDB REQUEST", "ETH REQUEST")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10.2f %14.1f %14.1f %14.1f %14.1f\n",
			float64(r.PayloadBytes)/1024,
			ms(r.SCDB.PerOp["CREATE"].Mean), ms(r.ETH.PerOp["CREATE"].Mean),
			ms(r.SCDB.PerOp["REQUEST"].Mean), ms(r.ETH.PerOp["REQUEST"].Mean))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figure 7b — latency vs transaction size: BID and ACCEPT_BID (ms)")
	fmt.Fprintf(w, "  %-10s %14s %14s %14s %14s %10s\n", "size(KB)", "SCDB BID", "ETH BID", "SCDB ACCEPT", "ETH ACCEPT", "BID ratio")
	for _, r := range rows {
		scdbBid := r.SCDB.PerOp["BID"].Mean
		ethBid := r.ETH.PerOp["BID"].Mean
		ratio := 0.0
		if scdbBid > 0 {
			ratio = float64(ethBid) / float64(scdbBid)
		}
		fmt.Fprintf(w, "  %-10.2f %14.1f %14.1f %14.1f %14.1f %9.0fx\n",
			float64(r.PayloadBytes)/1024,
			ms(scdbBid), ms(ethBid),
			ms(r.SCDB.PerOp["ACCEPT_BID"].Mean), ms(r.ETH.PerOp["ACCEPT_BID"].Mean), ratio)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figure 7c — throughput vs transaction size (tps)")
	fmt.Fprintf(w, "  %-10s %12s %12s\n", "size(KB)", "SCDB", "ETH-SC")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10.2f %12.1f %12.2f\n",
			float64(r.PayloadBytes)/1024, r.SCDB.Throughput, r.ETH.Throughput)
	}
	fmt.Fprintln(w)
}

// PrintFig8 renders Figures 8a, 8b and 8c.
func PrintFig8(w io.Writer, rows []Fig8Row) {
	fmt.Fprintln(w, "Figure 8a — SCDB latency vs cluster size (ms, 1.09 KB tx)")
	fmt.Fprintf(w, "  %-8s", "nodes")
	for _, op := range fig7Ops {
		fmt.Fprintf(w, " %12s", op)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8d", r.Nodes)
		for _, op := range fig7Ops {
			fmt.Fprintf(w, " %12.1f", ms(r.SCDB.PerOp[op].Mean))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figure 8b — ETH-SC latency vs cluster size (ms, 1.09 KB tx)")
	fmt.Fprintf(w, "  %-8s", "nodes")
	for _, op := range fig7Ops {
		fmt.Fprintf(w, " %12s", op)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8d", r.Nodes)
		for _, op := range fig7Ops {
			fmt.Fprintf(w, " %12.1f", ms(r.ETH.PerOp[op].Mean))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figure 8c — throughput vs cluster size (tps, 1.09 KB tx)")
	fmt.Fprintf(w, "  %-8s %12s %12s\n", "nodes", "SCDB", "ETH-SC")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8d %12.1f %12.2f\n", r.Nodes, r.SCDB.Throughput, r.ETH.Throughput)
	}
	fmt.Fprintln(w)
}

// PrintUsability renders the §5.2.2 comparison.
func PrintUsability(w io.Writer, r UsabilityResult) {
	fmt.Fprintln(w, "Usability — user code to stand up one marketplace (§5.2.2)")
	fmt.Fprintf(w, "  %-24s %8s\n", "approach", "LoC")
	fmt.Fprintf(w, "  %-24s %8d   (paper: 175)\n", "ETH-SC smart contract", r.ContractLines)
	fmt.Fprintf(w, "  %-24s %8d   (native transaction types)\n\n", "SmartchainDB", r.DeclarativeLines)
}
