// Package parallel implements dependency-aware parallel validation for
// the SmartchainDB commit path — the DeliverTx-stage block check that
// every validator runs before voting.
//
// The declarative transaction model is what makes this possible without
// speculative execution: a transaction's read/write footprint is fully
// determined by its document alone (Definition 1), so no execution is
// needed to discover it. The footprint rules are
// (txn.Transaction.Footprint derives them, once per transaction):
//
//   - every transaction WRITES its own identity key (its bare ID) — the
//     transaction-log insert, and the asset registration for
//     CREATE/REQUEST, which mint their asset under their own ID;
//   - every spent input WRITES the UTXO key of the output it consumes
//     ("utxo:<txid>:<index>") and READS the producing transaction
//     (its ID), ordering a spender after an in-block producer;
//   - every entry of the reference vector R WRITES the auction-state
//     key of the referenced transaction ("ref:<id>") — a BID adds to
//     the REQUEST's locked-bid set, an ACCEPT_BID consumes it and
//     closes the auction, a WITHDRAW_BID removes from it — and READS
//     the referenced transaction itself;
//   - an asset link READS the creating transaction (the asset ID).
//
// A transaction ID is 64 hex digits with no ':', so the bare-ID
// namespace cannot collide with the prefixed two.
//
// Two transactions conflict when one's writes intersect the other's
// reads or writes (the commutativity criterion of Bartoletti et al.'s
// transaction-parallelism theory). BuildPlan partitions a block's batch
// into connected components of the conflict graph with a union-find;
// Plan.RunGroups dispatches the components to a worker pool, and every
// stage runs its batch that way — Scheduler.ValidateBatch (admission
// and block validation), the ledger's block stage — at any worker
// count, one worker being the same groups run one after another.
// Within a component transactions are processed strictly in block
// order, so every condition set observes exactly the same batch prefix
// it would in a block-order pass, and the valid/invalid partition —
// and therefore the committed state — is byte-identical to that pass
// at every worker count (the tests pin it to a block-order reference
// loop). Across components no condition can observe a difference,
// because condition sets only consult batch state through the keys the
// footprint covers.
package parallel
