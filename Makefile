# Tier-1 verification targets. `make test` is the gate every PR must
# keep green: build, go vet, the full suite on the memory backend, the
# storage-sensitive suites again over the disk engine
# (SCDB_BACKEND=disk swaps every ledger.NewState onto a throwaway
# WAL+segment engine), five seconds of fuzzing on each trust-boundary
# decoder that has a target, a seconds-scale smoke run of scdb-bench
# (the paper's six experiments and the open-loop traffic sweep), the
# repo benchmark's own smoke test (a nested module `go test ./...`
# does not reach), and a run of every program we ship (the demo binary
# and the five examples), and the state-touching suites once more with
# the immutability tripwire compiled in (`make test-tripwire`). `make
# test-race` runs the concurrency-sensitive packages
# under the race detector on both backends; `make test-flake` repeats
# them 50 times at GOMAXPROCS 1 and 2.

GO ?= go

.PHONY: all build vet test test-disk test-tripwire test-bench test-race test-flake fuzz bench-alloc bench-traffic bench-smoke run-shipped ci

all: build test

build:
	$(GO) build ./...

# gofmt is part of vet so tier-1 keeps the tree formatted: any file
# `gofmt -l` names fails the target. The benchmark is its own module,
# which `go vet ./...` does not reach, so it is vetted on its own.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

test: build vet
	$(GO) test ./...
	$(MAKE) test-disk
	$(MAKE) test-tripwire
	$(MAKE) fuzz FUZZTIME=5s
	$(MAKE) bench-smoke
	$(MAKE) test-bench
	$(MAKE) run-shipped

# The repo benchmark (BENCHMARK.json, `bash benchmark/run.sh`) is its
# own Go module: a 1/100-scale smoke of every workload with its
# correctness gate, plus the BENCHMARK.json <-> metric-table check.
test-bench:
	cd benchmark && $(GO) test -count=1 .

# Native fuzz targets, one `go test -fuzz` run each (the tool takes one
# target at a time). FuzzTxnCodec: on any JSON object, txn.FromDoc and
# the JSON round trip it replaced agree on accept/reject and on the
# decoded value. FuzzVerifyFulfillments: on any fulfillment string and
# previous-owner list a client can put on a signed fan-in or multisig
# transfer (multisig strings are parsed by keys.ParseMultiSig), the
# fulfillment verifier, the batch and the reference verifier they
# replaced never panic and agree on the verdict and the error string;
# each input costs a dozen verifications, so its minimisations are
# capped at a second.
# FuzzStoredTx: on any JSON object, the in-place reader of a stored
# transaction (txn.Stored) never panics, and wherever txn.FromStoredDoc
# decodes the object every field it reads is the decoded value.
# FuzzDocEncoder: on any JSON object retyped into every
# Go number type and string hazard, the one document encoder
# (internal/canon) and encoding/json.Marshal agree byte for byte and on
# what they refuse. The storage trust boundary — bytes read back from a
# data directory: FuzzDecodeGroup (WAL frames and group payloads),
# FuzzLoadSegment, FuzzReadManifest never panic, and decode what the
# encoders wrote into what went in. FuzzMemCollection: on any program
# of puts, deletes, block begins and seals and retention changes, the
# memtable's per-key table answers every read at every retained height
# as the sync.Map layout it replaced does (reference_test.go).
# FuzzPlannedFind: on documents and
# filter trees decoded from the input, over hash, ordered, multikey,
# unique-valued and partial indexes, with documents entering and leaving
# the partial indexes' predicates, a read driven on the first conjunct
# an index serves (the rest left to the residual filter) finds what a
# full scan finds, in the writer view and at every retained snapshot
# height, and touches one index, with one probe per key it asks for;
# its choices past the end of
# an input come from a generator the input seeds, so every byte moves
# its coverage and minimising an input rarely converges — each attempt
# is capped at a second. FuzzDecodePrepared: on a PREPARE record read
# back from the 2PC log (the home and participant shares of the
# workload generators' transactions, fields rewritten by an edit
# program), ledger.DecodePrepared never panics, and what it accepts
# renders and decodes again to the same ops, each carrying what its
# seal needs. FuzzSchemaValidate: on any JSON object (seeded from the
# internal/workload generators' documents, as written and with one
# field edited), the compiled schema walker never panics and agrees
# with the interpreter it replaced (reference_test.go) on the verdict
# and the error string, through Registry.ValidateDoc and through one
# anyOf over every native schema. FuzzSchemaCompile: on any JSON text,
# schema.Compile of the decoded document returns a schema or an error,
# and a schema it returns validates a few generator documents without
# panicking or recursing forever (a cycle of anyOf and $ref is a
# compile error), the same way twice; seeded from the native schema
# files (JSON) and the hand-written test schemas, its minimisations
# capped at a second. FuzzBase58: on any string, keys.Base58Decode and
# the math/big decoder it replaced (base58_test.go) give the same bytes
# and the same ErrBadBase58, leading '1's included, and what decodes
# encodes back to the string. A failing input is written under the package's
# testdata/fuzz/ and then runs as a plain test — commit it with the
# fix.
FUZZTIME ?= 60s

fuzz:
	$(GO) test ./internal/txn -run '^$$' -fuzz '^FuzzTxnCodec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/txn -run '^$$' -fuzz '^FuzzVerifyFulfillments$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/txn -run '^$$' -fuzz '^FuzzStoredTx$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/canon -run '^$$' -fuzz '^FuzzDocEncoder$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzDecodeGroup$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzLoadSegment$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzReadManifest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzMemCollection$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/docstore -run '^$$' -fuzz '^FuzzPlannedFind$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/ledger -run '^$$' -fuzz '^FuzzDecodePrepared$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/schema -run '^$$' -fuzz '^FuzzSchemaValidate$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/schema -run '^$$' -fuzz '^FuzzSchemaCompile$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/keys -run '^$$' -fuzz '^FuzzBase58$$' -fuzztime $(FUZZTIME)

# Per-call cost of the primitives a transaction passes through between
# admission and the log — codec, footprint, committed-state reads,
# encodability check, and a create_durable block's WAL group commit
# (encode, frame, write; no fsync) — over the two shapes the repo
# benchmark streams (a 4-input TRANSFER, a CREATE with 1 KiB of
# metadata), plus the checkpoint fold of 128 such blocks, the docstore
# Insert of each shape's document, one sealed spent mark of a fresh
# output (its marker, version and closed postings) and one 4-input
# TRANSFER committed over 64 k outputs (SpendFanIn: one marker for four
# spent keys). Their
# allocation counts are pinned by unit tests (Test*Allocation*); this
# prints the bytes and the time. README "Transaction codec and document
# ownership" has the table.
# SealOneTxBlock/{1k,64k} is the seal of a one-transaction block over
# two state sizes: the two read alike because a seal costs what the
# block changed (the count is pinned by
# TestPreparedApplyCostsTheBlockNotTheState). Every iteration commits a
# block and the state is never reset, so it runs on its own line at a
# fixed count, the one README's table was taken at. CommitTransferChain
# commits 4096 chained transfers in blocks of 256 and reports ns/tx.
# IndexInsert/{hash,ordered}/{unique,shared} is one document's index
# upkeep on insert (B/op is what a posting costs); TestIndexPostingBytes
# pins it. PlanLockedBids compiles the validator's locked-bid filter
# over 64 k transactions and executes its plan: the refs conjunct,
# written first, drives one point probe, and the operation is left to
# the residual filter (TestLockedBidFindAllocations pins what the find
# allocates). MemPut, MemGetAt and MemScanAt are the
# memtable's insert, snapshot point read and full scan over 64 k keys,
# each beside the sync.Map layout it replaced; TestStoredKeyBytes pins
# what a key retains. ChildCommitted is what every validator pays
# per committed nested child — its block, with the recovery-log mark
# and the parent's children field its seal writes
# (TestChildCommittedAllocations pins what they add): each iteration
# commits one child of a ten-bid auction and every tenth builds a
# fresh auction off the clock, so it runs at a fixed count.
# VerifyFulfillmentsBatch verifies a 64-transaction admission batch of
# 4-input fan-ins on two workers, payloads memoized
# (TestVerifyFulfillmentsBatchAllocationCeiling pins its allocations).
# Footprint reads the footprint the transaction derived once
# (TestFootprintAllocationCeiling pins a warm one at 0);
# GroupFootprints groups a 64-transaction marketplace block over pooled
# scratch, allocating only the groups it returns
# (TestGroupFootprintsAllocationCeiling); AdmitBatch takes that block
# through a fresh pool's screen, grouping and insert, with no semantic
# check behind it.
# SchemaValidate/{transfer4,create1k,bid} is Algorithm 1 on the two
# shapes and a generated BID: a valid document allocates nothing
# (TestSchemaValidateAllocatesNothing pins it).
# TransferConditions is TRANSFER's condition set on the 4-input shape,
# one Context per call: a keyed read per spent output and condition,
# under the key the transaction's spend keys hold, no funding
# transaction decoded (TestTransferConditionsAllocations pins it at 2); AuctionConditions/{bid,accept,return} are BID's and
# ACCEPT_BID's sets over a ten-bid auction and a losing bid's RETURN,
# every transaction they read read in place
# (TestAuctionConditionsAllocations pins all three).
# AssetProvenance/{1k,64k} walks a 16-hop ownership chain over two state
# sizes: the same allocations at both, fewer per hop than one decode
# (TestAssetProvenanceReadsInPlace).
# Base58Decode decodes a public key and a signature into 32-bit limbs on
# the stack: one allocation each, the result
# (TestBase58DecodeAllocations).
bench-alloc:
	$(GO) test ./internal/txn ./internal/parallel ./internal/mempool ./internal/ledger ./internal/storage ./internal/docstore ./internal/schema ./internal/validate ./internal/query ./internal/keys -run '^$$' -benchmem -bench 'ToDoc|FromDoc|SigningPayloadCold|VerifyFulfillmentsBatch|MarshalCanonicalCold|OutputRefString|Footprint|GroupFootprints|AdmitBatch|PoolSteadyState|StateView|InsertDoc|MarkSpent|SpendFanIn|StageBlock|CommitTransferChain|EncodableDoc|GroupCommit|Fold|MemPut|MemGetAt|MemScanAt|IndexInsert|PlanLockedBids|SchemaValidate|TransferConditions|AuctionConditions|AssetProvenance|Base58Decode'
	$(GO) test ./internal/ledger -run '^$$' -benchmem -bench SealOneTxBlock -benchtime 20000x
	$(GO) test ./internal/nested -run '^$$' -benchmem -bench ChildCommitted -benchtime 5000x
	$(GO) test ./internal/shard -run '^$$' -benchmem -bench 'CrossShardTransfer|LocalShardRound'

# The tier-1 suites that touch chain state (ledger, server/cluster,
# nested recovery, bench differential, query) re-run over the disk
# backend — including the MVCC snapshot suites (storage version
# chains, docstore snapshot isolation, ledger StateAt differentials)
# and the sharding suite (per-shard WALs, cross-shard 2PC crash
# convergence, directory rebuild across reopen). -count=1 forces a
# fresh run under the env switch.
test-disk:
	SCDB_BACKEND=disk $(GO) test -count=1 ./internal/ledger ./internal/server ./internal/consensus ./internal/nested ./internal/bench ./internal/query ./internal/docstore ./internal/obs ./internal/shard

# A stored document is an immutable value — whoever builds it hands it
# over, nobody edits it. `-tags tripwire` compiles the check into the
# storage layer (internal/storage/tripwire_on.go; the hooks are empty in
# every other build): each document is digested as it is stored and
# again when it is stored a second time, when its backend closes and
# after a suite's last test; a difference panics or fails the run
# naming collection and key. A signed transaction is one too, and the
# same tag checks it (internal/txn/tripwire_on.go): each memoized
# signing payload or canonical encoding is encoded again as it is
# served, and a difference panics naming the transaction. Every suite
# that commits to a state runs under it, unchanged.
TRIPWIRE_PKGS = ./internal/txn ./internal/storage ./internal/docstore ./internal/ledger ./internal/server ./internal/nested ./internal/shard ./internal/query ./internal/validate ./internal/bench

test-tripwire:
	$(GO) vet -tags tripwire $(TRIPWIRE_PKGS)
	$(GO) test -tags tripwire -count=1 $(TRIPWIRE_PKGS)

# The race gate covers the commit pipeline end to end: the ledger's
# per-conflict-group appliers, the server's commit fence (incl. the
# h+1-reads-race-h's-appliers stress test), the docstore's planner —
# planned point and range reads and ordered walks racing writers (the
# docstore suites self-parameterize over both backends) — the MVCC
# snapshot suites (lock-free snapshot readers racing block appliers
# at every layer), and the consensus overlap. The SCDB_BACKEND=disk
# leg re-runs the ledger-backed suites, incl. the
# query-engine-vs-block-commit race, over the WAL engine. The
# txn/keys/driver leg covers the admission fast path: the per-tx memo
# of derived values (each published once, by a compare-and-swap from
# empty) and the batch signature verifier's per-transaction worker
# fan-out. nested is here because its commit hook
# reads a borrowed (uncopied) stored document while later blocks stage;
# the docstore suite's borrowing reader is what would catch a write
# into one. server's TestSharedDocumentRace is the gate on the write
# side of that contract: four validators admit, validate, commit and
# then update the same *txn.Transaction — one shared document — while
# borrowing readers walk transactions and utxos on every node. schema
# is here because the compiled native schemas are built once per process
# and shared by every registry, so every node's validators walk the same
# Schema values at once (TestRegistriesShareNativeSchemasConcurrently).
RACE_PKGS = ./internal/mempool ./internal/parallel ./internal/ledger ./internal/consensus ./internal/server ./internal/bench ./internal/storage ./internal/docstore ./internal/query ./internal/obs ./internal/shard ./internal/txn ./internal/keys ./internal/driver ./internal/nested ./internal/schema

test-race:
	$(GO) test -race $(RACE_PKGS)
	SCDB_BACKEND=disk $(GO) test -race -count=1 ./internal/ledger ./internal/server ./internal/consensus ./internal/query ./internal/shard

# Flake hunt over the race-gate packages: 50 repetitions with one and
# with two scheduler threads, the two settings under which a test that
# depends on goroutine interleaving behaves most differently. No race
# detector — this looks for tests that fail some runs, not for races.
test-flake:
	GOMAXPROCS=1 $(GO) test -count=50 $(RACE_PKGS)
	GOMAXPROCS=2 $(GO) test -count=50 $(RACE_PKGS)

# Open-loop traffic sweep: Poisson arrivals from a million-user
# keypair population through one node's CheckTxBatch -> CommitNext,
# backend x offered rate, latency measured from each transaction's
# scheduled arrival — the one measurement a
# closed-loop benchmark (benchmark/) cannot make.
bench-traffic:
	$(GO) run ./cmd/scdb-bench -exp traffic

# Seconds-scale smoke run of everything scdb-bench still does — the
# paper's six experiments at toy scale (virtual time: the output is the
# same bytes every run) and one toy open-loop traffic sweep — part of
# the default `make test` gate so a broken experiment path fails the
# build, not the next benchmarking session. Writes the
# machine-readable results alongside the tables.
bench-smoke:
	$(GO) run ./cmd/scdb-bench -exp fig2,fig7,fig8,usability,mix,recovery,traffic -json bench-smoke.json -auctions 1 -bidders 3 -nodes 4,8 -sizes 110,1090 -trafficusers 256 -traffictxs 256 -trafficrates 4000 -trafficbatch 32

# Run what we ship: the five examples and the demo binary are the only
# callers of workflow, the closed-loop driver and several query
# methods, so they are run, not just compiled. Each must exit 0 and
# print its closing line; the demo runs four ways — in memory, twice
# over one data directory (the second run must recover validator 0 and
# both shards at a height above zero), sharded, and at depth 1 — and
# must refuse -commitdepth 3 with exit status 2.
run-shipped:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; mkdir "$$d/bin"; \
	$(GO) build -o "$$d/bin/" ./cmd/smartchaindb ./examples/...; \
	run() { want=$$1; shift; name="$$*"; name=$${name#$$d/bin/}; \
		out=$$("$$@" 2>&1) || { echo "run-shipped: $$name: exit $$?"; echo "$$out"; exit 1; }; \
		echo "$$out" | grep -Eq -- "$$want" || { echo "run-shipped: $$name: no line matching '$$want'"; echo "$$out"; exit 1; }; \
		echo "ok   $$name"; }; \
	run 'double spend rejected' "$$d/bin/quickstart"; \
	run 'settled=true' "$$d/bin/procurement"; \
	run 'validates against the simple-transfer spec' "$$d/bin/supplychain"; \
	run 'TOTAL +[1-9]' "$$d/bin/analytics"; \
	run 'second recovery pass: nothing to do' "$$d/bin/sealedbid-recovery"; \
	summary='^11 transactions committed, mean latency'; \
	run "$$summary" "$$d/bin/smartchaindb"; \
	run "$$summary" "$$d/bin/smartchaindb" -commitdepth 1; \
	run 'shard 1 height: [1-9]' "$$d/bin/smartchaindb" -shards 2; \
	run 'validator 0 recovered at height 0' "$$d/bin/smartchaindb" -datadir "$$d/data" -shards 2; \
	run 'validator 0 recovered at height [1-9]' "$$d/bin/smartchaindb" -datadir "$$d/data" -shards 2; \
	echo "$$out" | grep -Ec 'shard [0-9]+ recovered at height [1-9]' | grep -qx 2 \
		|| { echo "run-shipped: a shard did not recover its chain:"; echo "$$out"; exit 1; }; \
	echo "ok   (both shards recovered too)"; \
	if out=$$("$$d/bin/smartchaindb" -commitdepth 3 2>&1); then echo "run-shipped: -commitdepth 3 was accepted"; exit 1; \
	elif [ $$? -ne 2 ] || ! echo "$$out" | grep -q 'Config.CommitDepth is 3'; then echo "run-shipped: -commitdepth 3: want exit 2 naming the field, got: $$out"; exit 1; fi; \
	echo "ok   smartchaindb -commitdepth 3 (refused, exit 2)"; \
	if out=$$("$$d/bin/smartchaindb" -bidders 0 2>&1); then echo "run-shipped: -bidders 0 was accepted"; exit 1; \
	elif [ $$? -ne 2 ] || ! echo "$$out" | grep -q -- '-bidders is 0'; then echo "run-shipped: -bidders 0: want exit 2 naming the flag, got: $$out"; exit 1; fi; \
	echo "ok   smartchaindb -bidders 0 (refused, exit 2)"

ci: test test-race
