package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/server"
	"smartchaindb/internal/shard"
	"smartchaindb/internal/storage"
	"smartchaindb/internal/txn"
)

// shardBench drives shard.Cluster with two shards over per-shard disk
// backends (fsync off): chains of single-input TRANSFERs advance in
// lockstep rounds, most hops staying on their shard (SubmitBatch +
// DrainLocal) and a fixed share hinted to the other shard, which commits
// them by two-phase commit through Submit. One driver goroutine, one
// round at a time.
type shardBench struct {
	wl workloadProfile

	preload [][]byte // the chains' CREATEs, hinted to their first shard
	rounds  []shardRound
	nWarm   int

	minted  map[string]uint64
	chains  []chainFinal
	band0   map[uint64]int // amount → chain heads on shard 0 holding it
	commits int

	c   *shard.Cluster
	dir string

	// Traced windows only: the 2PC span the event hook cuts, and where
	// the last cut fell.
	rec      *recorder
	span2pc  int
	trace2pc string
	lastCut  time.Time

	reopenD, fingerprintD time.Duration
	diskBytes             int64
	twopcDocs             int
}

type shardRound struct {
	local, cross [][]byte
}

// chainFinal is what the generator expects of one chain at the end.
type chainFinal struct {
	asset  string
	amount uint64
	head   int // shard holding the unspent head
	steps0 int // hops AssetProvenance walks on shard 0; 0 if created on shard 1
}

const shards = 2

func (b *shardBench) units() (int, int)    { return b.nWarm, len(b.rounds) }
func (b *shardBench) state() *ledger.State { return b.c.Shard(0).Node.State() }

func (b *shardBench) generate(seed int64, n int) {
	nc := b.wl.Chains
	measured := (n + nc - 1) / nc
	b.nWarm = max(1, measured/10)
	total := b.nWarm + measured
	b.preload = make([][]byte, nc)
	b.chains = make([]chainFinal, nc)
	hops := make([][][]byte, nc) // chain → round → transfer
	crossed := make([][]bool, nc)
	parallelFor(nc, func(c int) {
		rng := rand.New(rand.NewSource(seed<<24 ^ int64(c)))
		key := func(hop int) *keys.KeyPair {
			return keys.DeterministicKeyPair(seed<<24 + int64(c)<<12 + int64(hop))
		}
		owner := key(0)
		home := c % shards
		amount := uint64(2 + c%499)
		create := txn.NewCreate(owner.PublicBase58(), map[string]any{"chain": c}, amount,
			map[string]any{shard.MetaShardHint: home})
		b.preload[c] = sealBytes(create, owner)
		fin := chainFinal{asset: create.ID, amount: amount}
		if home == 0 {
			fin.steps0 = 1
		}
		walking := home == 0 // the provenance walk on shard 0 has not left it yet
		ref := txn.OutputRef{TxID: create.ID, Index: 0}
		hops[c] = make([][]byte, total)
		crossed[c] = make([]bool, total)
		for r := 0; r < total; r++ {
			next := key(r + 1)
			var meta map[string]any
			if rng.Intn(100) < b.wl.CrossPercent {
				home = (home + 1) % shards
				meta = map[string]any{shard.MetaShardHint: home}
				crossed[c][r] = true
			}
			tr := txn.NewTransfer(create.ID,
				[]txn.Spend{{Ref: ref, Owners: []string{owner.PublicBase58()}}},
				[]*txn.Output{{PublicKeys: []string{next.PublicBase58()}, Amount: amount}}, meta)
			hops[c][r] = sealBytes(tr, owner)
			if walking = walking && home == 0; walking {
				fin.steps0++
			}
			owner, ref = next, txn.OutputRef{TxID: tr.ID, Index: 0}
		}
		fin.head = home
		b.chains[c] = fin
	})
	b.rounds = make([]shardRound, total)
	for r := range b.rounds {
		for c := 0; c < nc; c++ {
			if crossed[c][r] {
				b.rounds[r].cross = append(b.rounds[r].cross, hops[c][r])
			} else {
				b.rounds[r].local = append(b.rounds[r].local, hops[c][r])
			}
		}
	}
	b.commits = nc * (1 + total)
	b.minted = make(map[string]uint64, nc)
	b.band0 = make(map[uint64]int)
	for _, ch := range b.chains {
		b.minted[ch.asset] = ch.amount
		if ch.head == 0 {
			b.band0[ch.amount]++
		}
	}
}

func (b *shardBench) config(dir string, tr *tracing) shard.Config {
	cfg := shard.Config{
		Shards:       shards,
		DataDir:      dir,
		MempoolBatch: b.wl.BlockTxs,
		Node: server.Config{
			ReservedSeed:     reservedSeed,
			NoSync:           true,
			AdmissionWorkers: workers,
			ParallelWorkers:  workers,
			CommitWorkers:    workers,
			CommitDepth:      commitDepth,
		},
	}
	if tr != nil {
		cfg.ObsFor = tr.reg
		// The hook fires after every durable 2PC step; each call closes
		// one child span of the transaction's 2pc span.
		cfg.EventHook = func(ev string) {
			step, _, _ := strings.Cut(ev, ":")
			step, _, _ = strings.Cut(step, "@")
			b.lastCut = b.rec.since("2pc."+step, b.trace2pc, b.span2pc, b.lastCut)
		}
	}
	return cfg
}

func (b *shardBench) open(dir string, tr *tracing, _ *window) (openD, preloadD time.Duration, err error) {
	b.dir = dir
	t0 := time.Now()
	b.c, err = shard.Open(b.config(dir, tr))
	if err != nil {
		return 0, 0, err
	}
	openD = time.Since(t0)
	t0 = time.Now()
	creates, err := decodeAll(b.preload)
	if err != nil {
		return 0, 0, err
	}
	if errs := b.c.SubmitBatch(creates); len(errs) != 0 {
		return 0, 0, fmt.Errorf("preload: %d CREATEs refused", len(errs))
	}
	if n := b.c.DrainLocal(b.wl.BlockTxs); n != len(creates) {
		return 0, 0, fmt.Errorf("preload: committed %d of %d CREATEs", n, len(creates))
	}
	return openD, time.Since(t0), nil
}

func (b *shardBench) drive(lo, hi int, w *window) error {
	rec := w.rec
	b.rec = rec // the event hook cuts spans only while a traced window drives
	for r := lo; r < hi; r++ {
		w.tick()
		rd := b.rounds[r]
		trace := rec.id("r", int64(r))
		unit := rec.start("unit", trace, -1)

		s := rec.start("decode", trace, unit)
		local, err := decodeAll(rd.local)
		if err != nil {
			return err
		}
		cross, err := decodeAll(rd.cross)
		if err != nil {
			return err
		}
		rec.end(s)

		// Classify every transaction against the directory, as a client
		// library choosing between the batch and the 2PC entry points
		// would; the generator knows which way each must go.
		s = rec.start("route", trace, unit)
		for i, t := range append(local[:len(local):len(local)], cross...) {
			route, err := b.c.RouteOf(t)
			if err != nil || route.Cross() != (i >= len(local)) {
				w.failed++
			}
		}
		rec.end(s)

		handed := time.Now()
		s = rec.start("local_submit", trace, unit)
		errs := b.c.SubmitBatch(local)
		rec.end(s)
		s = rec.start("drain", trace, unit)
		n := b.c.DrainLocal(b.wl.BlockTxs)
		rec.end(s)
		w.failed += len(errs)
		if n != len(local)-len(errs) {
			return fmt.Errorf("round %d: drained %d of %d admitted local transfers", r, n, len(local)-len(errs))
		}
		w.seal(n, time.Since(handed))

		for _, t := range cross {
			handed := time.Now()
			if rec != nil {
				b.trace2pc = t.ID[:8]
				b.span2pc = rec.start("2pc", b.trace2pc, unit)
				b.lastCut = handed
			}
			if err := b.c.Submit(t); err != nil {
				w.failed++
			} else {
				w.seal(1, time.Since(handed))
			}
			if rec != nil {
				rec.end(b.span2pc)
			}
		}
		rec.end(unit)
	}
	return nil
}

func (b *shardBench) queries(rng *rand.Rand, n int) []queryOp {
	var heads0, born0 []chainFinal
	for _, ch := range b.chains {
		if ch.head == 0 {
			heads0 = append(heads0, ch)
		}
		if ch.steps0 > 0 {
			born0 = append(born0, ch)
		}
	}
	ops := make([]queryOp, n)
	for i := range ops {
		switch {
		case i%100 == scanSlot:
			a := heads0[rng.Intn(len(heads0))]
			ops[i] = queryOp{method: qHoldingsInBand, lo: a.amount, hi: a.amount, want: b.band0[a.amount]}
		case i%25 != 0:
			ops[i] = queryOp{method: qHolderOf, id: heads0[rng.Intn(len(heads0))].asset, want: 1}
		default:
			a := born0[rng.Intn(len(born0))]
			ops[i] = queryOp{method: qAssetProvenance, id: a.asset, want: a.steps0}
		}
	}
	return ops
}

func (b *shardBench) states() []*ledger.State {
	out := make([]*ledger.State, shards)
	for i := range out {
		out[i] = b.c.Shard(i).Node.State()
	}
	return out
}

func (b *shardBench) check(w *window) []string {
	var bad []string
	states := b.states()
	held := 0
	b.twopcDocs = 0
	for i, st := range states {
		held += st.TxCount()
		indoubt, err := st.InDoubt()
		if err != nil || len(indoubt) != 0 {
			bad = append(bad, fmt.Sprintf("shard %d: %d prepares still in doubt (%v)", i, len(indoubt), err))
		}
		// The directory must home every committed transaction on the
		// shard that holds it.
		strays := 0
		for _, id := range st.Store().Collection(ledger.ColTransactions).Keys() {
			if home, ok := b.c.Directory().Lookup(id); !ok || home != i {
				strays++
			}
		}
		if strays != 0 {
			bad = append(bad, fmt.Sprintf("shard %d holds %d transactions the directory homes elsewhere", i, strays))
		}
		b.twopcDocs += st.Store().Backend().Collection(storage.TwoPCCollection).Len()
	}
	if held != b.commits || b.c.Directory().Len() != b.commits {
		bad = append(bad, fmt.Sprintf("shards hold %d transactions, directory %d, generator expects %d", held, b.c.Directory().Len(), b.commits))
	}
	bad = append(bad, conservation(b.minted, states...)...)

	t0 := time.Now()
	fps := make([]string, shards)
	heights := make([]int64, shards)
	for i, st := range states {
		fps[i], heights[i] = st.Fingerprint(), st.Height()
	}
	b.fingerprintD = time.Since(t0) / shards
	if err := b.c.Close(); err != nil {
		return append(bad, fmt.Sprintf("close before reopen: %v", err))
	}
	b.diskBytes = dirBytes(b.dir)
	t0 = time.Now()
	c, err := shard.Open(b.config(b.dir, nil))
	if err != nil {
		return append(bad, fmt.Sprintf("reopen: %v", err))
	}
	b.reopenD = time.Since(t0)
	b.c = c
	for i, st := range b.states() {
		if st.Height() != heights[i] || st.Fingerprint() != fps[i] {
			bad = append(bad, fmt.Sprintf("shard %d reopened at height %d with a different state than it closed with at %d", i, st.Height(), heights[i]))
		}
	}
	if c.Recovered != 0 {
		bad = append(bad, fmt.Sprintf("reopen resolved %d in-doubt transactions; none should remain", c.Recovered))
	}
	return bad
}

func (b *shardBench) close() error { return b.c.Close() }

func (b *shardBench) dropInputs() {
	b.preload = nil
	b.rounds = nil
}

func (b *shardBench) layer(tr *tracing, spans map[string]spanStat, w *window, m metrics) {
	us := func(name string) float64 { return float64(spans[name].Total.Nanoseconds()) / 1e3 }
	crossN := float64(spans["2pc"].Count)
	localN := float64(w.sealed) - crossN
	m["shard.route_us_per_tx"] = ratio(us("route"), float64(w.sealed))
	m["shard.local_submit_us_per_tx"] = ratio(us("local_submit"), localN)
	m["shard.drain_us_per_tx"] = ratio(us("drain"), localN)
	m["shard.2pc_ms_per_tx"] = ratio(us("2pc")/1e3, crossN)
	m["shard.2pc_hold_us"] = ratio(us("2pc.hold"), crossN)
	m["shard.2pc_prepare_us"] = ratio(us("2pc.stage")+us("2pc.prepare"), crossN)
	m["shard.2pc_decide_us"] = ratio(us("2pc.decide"), crossN)
	m["shard.2pc_apply_us"] = ratio(us("2pc.apply")+us("2pc.release"), crossN)
	m["shard.2pc_aborted"] = tr.counter("shard.2pc.aborted")
	m["shard.twopc_docs"] = float64(b.twopcDocs)
	m["ledger.fingerprint_ms"] = float64(b.fingerprintD.Microseconds()) / 1e3
	m["storage.reopen_s"] = b.reopenD.Seconds()
	m["storage.disk_bytes_per_tx"] = ratio(float64(b.diskBytes), float64(b.commits))
}

func (b *shardBench) probeSet(max int) (preload, inputs [][]byte) {
	// The first round advances every chain once, so the CREATEs alone
	// back it.
	rd := b.rounds[0]
	inputs = append(rd.local[:len(rd.local):len(rd.local)], rd.cross...)
	return b.preload, inputs[:min(max, len(inputs))]
}
