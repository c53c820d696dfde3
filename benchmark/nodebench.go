package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/server"
	"smartchaindb/internal/txn"
)

// nodeBench drives one server.Node the way a single validator's
// receive loop would, closed loop with at most two blocks in flight:
// the driver decodes, admits and validates block h+1 while block h
// commits behind CommitStart, then waits for h's seal before handing
// h+1 to the commit stage. transfer_fanin and create_durable are this
// driver over two different streams and two different backends.
type nodeBench struct {
	wl      workloadProfile
	durable bool // disk backend with fsync on, else memory

	// Inputs. A block is blockTxs consecutive stream items.
	preload [][]byte
	stream  [][]byte
	rival   []bool // stream[i] is a double spend that must be refused
	nWarm   int    // warm-up blocks
	blocks  int

	// Expectations.
	minted    map[string]uint64 // asset → shares
	final     []finalAsset      // one per asset, in stream order
	bandCount map[uint64]int    // unspent amount → outputs holding it
	honest    int               // transactions that must commit (without preload)
	commits   int               // transactions the final state must hold, preload included
	// windowRivals counts the rivals in the measured part of the stream.
	windowRivals int

	node *server.Node
	dir  string
	next int64 // height of the next block the driver hands in

	traced                          bool // this pass reports per-layer metrics
	reopenD, compactD, fingerprintD time.Duration
	diskBytes                       int64
}

// finalAsset is what the generator expects of one asset once the whole
// stream has committed.
type finalAsset struct {
	id     string
	amount uint64 // the single unspent output's amount
	steps  int    // hops AssetProvenance walks
}

func (b *nodeBench) units() (int, int) { return b.nWarm, b.blocks }
func (b *nodeBench) state() *ledger.State {
	return b.node.State()
}

// generate builds the stream. The warm-up is a tenth of the measured
// count, rounded to whole blocks, and comes first.
func (b *nodeBench) generate(seed int64, n int) {
	bt := b.wl.BlockTxs
	measured := (n + bt - 1) / bt
	b.nWarm = max(1, measured/10)
	b.blocks = b.nWarm + measured
	if b.durable {
		b.genCreates(seed, b.blocks*bt)
	} else {
		b.genFanin(seed, b.blocks*bt)
	}
	b.commits = len(b.preload) + b.honest
	for _, rival := range b.rival[b.nWarm*bt:] {
		if rival {
			b.windowRivals++
		}
	}
}

// genFanin builds items stream slots of 4-input → 1-output TRANSFERs,
// one per hundred of them a double-spend rival of an earlier transfer,
// plus the CREATEs that fund them. Every owner is a distinct key.
func (b *nodeBench) genFanin(seed int64, items int) {
	// A rival follows its victim by a stride that sometimes keeps it in
	// the same block (refused as an intra-batch conflict) and sometimes
	// pushes it into the next (refused against the in-flight or sealed
	// spend).
	const stride = 37
	period := b.wl.RivalEvery + 1
	slot := make([]int, items) // honest transfer at this slot, or -1-victim for a rival
	n := 0
	for s := range slot {
		if s%period == period-1 && s >= stride {
			slot[s] = -1 - slot[s-stride]
			continue
		}
		slot[s] = n
		n++
	}
	b.honest = n

	owners := make([]*keys.KeyPair, n)
	pubs := make([]string, n)
	parallelFor(n, func(i int) {
		owners[i] = keys.DeterministicKeyPair(seed<<24 + int64(i))
		pubs[i] = owners[i].PublicBase58()
	})
	b.preload = make([][]byte, n)
	b.final = make([]finalAsset, n)
	transfers := make([][]byte, n)
	victim := make([]bool, n)
	for _, v := range slot {
		if v < 0 {
			victim[-1-v] = true
		}
	}
	rivals := make([][]byte, n) // set where victim is true
	parallelFor(n, func(i int) {
		pub := pubs[i]
		first := uint64(1 + i%997)
		create := txn.NewCreate(pub, map[string]any{"kind": "wallet", "seq": i}, first+3, nil)
		create.Outputs = []*txn.Output{
			{PublicKeys: []string{pub}, Amount: first},
			{PublicKeys: []string{pub}, Amount: 1},
			{PublicKeys: []string{pub}, Amount: 1},
			{PublicKeys: []string{pub}, Amount: 1},
		}
		b.preload[i] = sealBytes(create, owners[i])
		spends := make([]txn.Spend, 4)
		for j := range spends {
			spends[j] = txn.Spend{Ref: txn.OutputRef{TxID: create.ID, Index: j}, Owners: []string{pub}}
		}
		pay := func(to string) []byte {
			tr := txn.NewTransfer(create.ID, spends, []*txn.Output{{PublicKeys: []string{to}, Amount: first + 3}}, nil)
			return sealBytes(tr, owners[i])
		}
		transfers[i] = pay(pubs[(i+1)%n])
		if victim[i] {
			rivals[i] = pay(pubs[(i+2)%n])
		}
		b.final[i] = finalAsset{id: create.ID, amount: first + 3, steps: 2}
	})
	b.stream = make([][]byte, items)
	b.rival = make([]bool, items)
	for s, v := range slot {
		if v < 0 {
			b.stream[s], b.rival[s] = rivals[-1-v], true
		} else {
			b.stream[s] = transfers[v]
		}
	}
	b.index()
}

// genCreates builds items CREATEs from a fixed population of accounts,
// each with a payload of capability-like strings in its metadata and
// four indexed capability strings in its asset.
func (b *nodeBench) genCreates(seed int64, items int) {
	accounts := make([]*keys.KeyPair, b.wl.Accounts)
	parallelFor(len(accounts), func(i int) {
		accounts[i] = keys.DeterministicKeyPair(seed<<24 + int64(i))
	})
	b.honest = items
	b.stream = make([][]byte, items)
	b.rival = make([]bool, items)
	b.final = make([]finalAsset, items)
	parallelFor(items, func(i int) {
		rng := rand.New(rand.NewSource(seed<<24 ^ int64(i)))
		owner := accounts[i%len(accounts)]
		caps := make([]any, 4)
		for j := range caps {
			caps[j] = fmt.Sprintf("capability-%03d", rng.Intn(256))
		}
		shares := uint64(2 + i%997)
		create := txn.NewCreate(owner.PublicBase58(),
			map[string]any{"capabilities": caps, "seq": i}, shares,
			map[string]any{"pad": padding(rng, b.wl.PayloadBytes), "timestamp": i})
		b.stream[i] = sealBytes(create, owner)
		b.final[i] = finalAsset{id: create.ID, amount: shares, steps: 1}
	})
	b.index()
}

// padding returns n bytes of seeded lower-case text.
func padding(rng *rand.Rand, n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	var sb strings.Builder
	sb.Grow(n)
	for i := 0; i < n; i++ {
		sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

func (b *nodeBench) index() {
	b.minted = make(map[string]uint64, len(b.final))
	b.bandCount = make(map[uint64]int)
	for _, a := range b.final {
		b.minted[a.id] = a.amount
		b.bandCount[a.amount]++
	}
}

func (b *nodeBench) open(dir string, tr *tracing, w *window) (openD, preloadD time.Duration, err error) {
	cfg := server.Config{
		ReservedSeed:     reservedSeed,
		AdmissionWorkers: workers,
		ParallelWorkers:  workers,
		CommitWorkers:    workers,
		CommitDepth:      commitDepth,
		Obs:              tr.reg(0),
	}
	if b.durable {
		cfg.DataDir = filepath.Join(dir, "node")
	}
	t0 := time.Now()
	b.node, err = server.OpenNode(cfg)
	if err != nil {
		return 0, 0, err
	}
	b.dir = cfg.DataDir
	b.traced = tr != nil
	openD = time.Since(t0)

	t0 = time.Now()
	for lo := 0; lo < len(b.preload); lo += b.wl.PreloadBlockTxs {
		hi := min(lo+b.wl.PreloadBlockTxs, len(b.preload))
		batch, err := decodeAll(b.preload[lo:hi])
		if err != nil {
			return 0, 0, err
		}
		committed, skipped := b.node.State().CommitBlock(batch)
		if len(committed) != hi-lo || len(skipped) != 0 {
			return 0, 0, fmt.Errorf("preload block at %d: committed %d of %d", lo, len(committed), hi-lo)
		}
		w.tick()
	}
	b.next = b.node.State().Height() + 1
	return openD, time.Since(t0), nil
}

// inflight is the one block committing behind the driver.
type inflight struct {
	join   func()
	handed time.Time // when the block entered the system's first call
	n      int
	span   int
}

func (b *nodeBench) drive(lo, hi int, w *window) error {
	rec := w.rec
	bt := b.wl.BlockTxs
	var prev *inflight
	joinPrev := func(unit int, trace string) {
		s := rec.start("join_wait", trace, unit)
		prev.join()
		rec.end(s)
		rec.end(prev.span)
		w.seal(prev.n, time.Since(prev.handed))
		prev = nil
	}
	for u := lo; u < hi; u++ {
		rival := b.rival[u*bt : (u+1)*bt]
		height := b.next
		b.next++
		trace := rec.id("", height)
		unit := rec.start("unit", trace, -1)

		s := rec.start("decode", trace, unit)
		txs, err := decodeAll(b.stream[u*bt : (u+1)*bt])
		if err != nil {
			return err
		}
		rec.end(s)

		handed := time.Now()
		s = rec.start("admit", trace, unit)
		errs := b.node.CheckTxBatch(asConsensus(txs))
		rec.end(s)
		admitted := txs[:0]
		for i, t := range txs {
			_, refused := errs[t.ID]
			switch {
			case refused != rival[i]:
				w.failed++ // an honest transaction refused, or a rival admitted
			case refused:
				w.rejected++
			default:
				admitted = append(admitted, t)
			}
		}

		block := asConsensus(admitted)
		s = rec.start("validate", trace, unit)
		invalid := b.node.ValidateBlock(block)
		rec.end(s)
		if len(invalid) != 0 {
			return fmt.Errorf("block %d: validation refused %d admitted transactions", height, len(invalid))
		}

		if prev != nil {
			joinPrev(unit, trace)
			w.tick()
		}
		span := rec.start("commit", trace, -1)
		// CommitStart counts heights from the node's height at open: 0,
		// the node being fresh.
		join := b.node.CommitStart(height, block)
		prev = &inflight{join: join, handed: handed, n: len(admitted), span: span}
		rec.end(unit)
	}
	if prev != nil {
		unit := rec.start("unit", "tail", -1)
		joinPrev(unit, "tail")
		rec.end(unit)
	}
	return nil
}

func (b *nodeBench) queries(rng *rand.Rand, n int) []queryOp {
	ops := make([]queryOp, n)
	for i := range ops {
		a := b.final[rng.Intn(len(b.final))]
		switch {
		case i%100 == scanSlot:
			ops[i] = queryOp{method: qHoldingsInBand, lo: a.amount, hi: a.amount, want: b.bandCount[a.amount]}
		case i%25 != 0:
			ops[i] = queryOp{method: qHolderOf, id: a.id, want: 1}
		default:
			ops[i] = queryOp{method: qAssetProvenance, id: a.id, want: a.steps}
		}
	}
	return ops
}

func (b *nodeBench) check(w *window) []string {
	var bad []string
	st := b.node.State()
	if got, want := st.TxCount(), b.commits; got != want {
		bad = append(bad, fmt.Sprintf("committed %d transactions, generator expects %d", got, want))
	}
	if w.rejected != b.windowRivals {
		bad = append(bad, fmt.Sprintf("refused %d double-spend rivals, generator expects %d", w.rejected, b.windowRivals))
	}
	bad = append(bad, conservation(b.minted, st)...)

	t0 := time.Now()
	fp := st.Fingerprint()
	b.fingerprintD = time.Since(t0)
	if !b.durable {
		return bad
	}
	height := st.Height()
	if err := b.node.Close(); err != nil {
		return append(bad, fmt.Sprintf("close before reopen: %v", err))
	}
	b.diskBytes = dirBytes(b.dir)
	t0 = time.Now()
	node, err := server.OpenNode(server.Config{ReservedSeed: reservedSeed, DataDir: b.dir})
	if err != nil {
		return append(bad, fmt.Sprintf("reopen: %v", err))
	}
	b.reopenD = time.Since(t0)
	b.node = node
	if got := node.State().Height(); got != height {
		bad = append(bad, fmt.Sprintf("reopened at height %d, closed at %d", got, height))
	}
	if node.State().Fingerprint() != fp {
		bad = append(bad, "reopened state's fingerprint differs from the closed one")
	}
	if b.traced {
		t0 = time.Now()
		if err := node.State().Store().Compact(); err != nil {
			bad = append(bad, fmt.Sprintf("compact: %v", err))
		}
		b.compactD = time.Since(t0)
	}
	return bad
}

func (b *nodeBench) close() error { return b.node.Close() }

func (b *nodeBench) dropInputs() {
	b.preload, b.stream, b.rival = nil, nil, nil
}

func (b *nodeBench) layer(tr *tracing, spans map[string]spanStat, w *window, m metrics) {
	txs := float64(w.sealed + w.rejected)
	m["server.admit_us_per_tx"] = ratio(float64(spans["admit"].Total.Microseconds()), txs)
	m["server.validate_us_per_tx"] = ratio(float64(spans["validate"].Total.Microseconds()), txs)
	m["server.commit_us_per_tx"] = ratio(float64(spans["commit"].Total.Microseconds()), float64(w.sealed))
	m["server.join_wait_share"] = ratio(float64(spans["join_wait"].Total), float64(w.raw))
	m["ledger.fingerprint_ms"] = float64(b.fingerprintD.Microseconds()) / 1e3
	m["storage.reopen_s"] = b.reopenD.Seconds()
	m["storage.compact_s"] = b.compactD.Seconds()
	m["storage.disk_bytes_per_tx"] = ratio(float64(b.diskBytes), float64(b.commits))
}

func (b *nodeBench) probeSet(max int) (preload, inputs [][]byte) {
	for i, raw := range b.stream {
		if len(inputs) == max {
			break
		}
		if !b.rival[i] {
			inputs = append(inputs, raw)
		}
	}
	// The fan-in transfers spend their CREATEs one to one, in order.
	return b.preload[:min(len(b.preload), len(inputs))], inputs
}
