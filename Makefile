# Tier-1 verification targets. `make test` is the gate every PR must
# keep green: build, go vet, the full suite on the memory backend, the
# storage-sensitive suites again over the disk engine
# (SCDB_BACKEND=disk swaps every ledger.NewState onto a throwaway
# WAL+segment engine), five seconds of fuzzing on each trust-boundary
# decoder that has a target, a seconds-scale bench smoke run, and the
# repo benchmark's own smoke test (a nested module `go test ./...` does
# not reach). `make test-race` runs the concurrency-sensitive packages
# under the race detector on both backends; `make test-flake` repeats
# them 50 times at GOMAXPROCS 1 and 2.

GO ?= go

.PHONY: all build vet test test-disk test-bench test-race test-flake fuzz bench-alloc bench-parallel bench-storage bench-mempool bench-commit bench-query bench-mvcc bench-obs bench-shard bench-traffic bench-pipeline bench-smoke ci

all: build test

build:
	$(GO) build ./...

# gofmt is part of vet so tier-1 keeps the tree formatted: any file
# `gofmt -l` names fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

test: build vet
	$(GO) test ./...
	$(MAKE) test-disk
	$(MAKE) fuzz FUZZTIME=5s
	$(MAKE) bench-smoke
	$(MAKE) test-bench

# The repo benchmark (BENCHMARK.json, `bash benchmark/run.sh`) is its
# own Go module: a 1/100-scale smoke of every workload with its
# correctness gate, plus the BENCHMARK.json <-> metric-table check.
test-bench:
	cd benchmark && $(GO) test -count=1 .

# Native fuzz targets, one `go test -fuzz` run each (the tool takes one
# target at a time). FuzzTxnCodec: on any JSON object, txn.FromDoc and
# the JSON round trip it replaced agree on accept/reject and on the
# decoded value. A failing input is written under the package's
# testdata/fuzz/ and then runs as a plain test — commit it with the fix.
FUZZTIME ?= 60s

fuzz:
	$(GO) test ./internal/txn -run '^$$' -fuzz '^FuzzTxnCodec$$' -fuzztime $(FUZZTIME)

# Per-call cost of the primitives a transaction passes through between
# admission and the log — codec, footprint, committed-state reads,
# encodability check, WAL group encode — over the two shapes the repo
# benchmark streams (a 4-input TRANSFER, a CREATE with 1 KiB of
# metadata). Their allocation counts are pinned by unit tests
# (Test*Allocation*); this prints the bytes and the time. README
# "Transaction codec and document ownership" has the table.
# SealOneTxBlock/{1k,64k} is the seal of a one-transaction block over
# two state sizes: the two read alike because a seal costs what the
# block changed (the count is pinned by
# TestPreparedApplyCostsTheBlockNotTheState).
bench-alloc:
	$(GO) test ./internal/txn ./internal/parallel ./internal/ledger ./internal/storage -run '^$$' -benchmem -bench 'ToDoc|FromDoc|SigningPayloadCold|MarshalCanonicalCold|OutputRefString|FootprintOf|StateView|StageBlock|SealOneTxBlock|EncodableDoc|EncodeGroup'

# The tier-1 suites that touch chain state (ledger, server/cluster,
# nested recovery, bench differential, query) re-run over the disk
# backend — including the MVCC snapshot suites (storage version
# chains, docstore snapshot isolation, ledger StateAt differentials)
# and the sharding suite (per-shard WALs, cross-shard 2PC crash
# convergence, directory rebuild across reopen). -count=1 forces a
# fresh run under the env switch.
test-disk:
	SCDB_BACKEND=disk $(GO) test -count=1 ./internal/ledger ./internal/server ./internal/consensus ./internal/nested ./internal/bench ./internal/query ./internal/docstore ./internal/obs ./internal/shard

# The race gate covers the commit pipeline end to end: the ledger's
# per-conflict-group appliers, the server's commit fence (incl. the
# h+1-reads-race-h's-appliers stress test), the docstore's planner —
# planned point/range/intersect/union reads racing writers (the
# docstore suites self-parameterize over both backends) — the MVCC
# snapshot suites (lock-free snapshot readers racing block appliers
# at every layer), and the consensus overlap. The SCDB_BACKEND=disk
# leg re-runs the ledger-backed suites, incl. the
# query-engine-vs-block-commit race, over the WAL engine. The
# txn/keys/driver leg covers the admission fast path: the per-tx
# canonical-bytes memo (CAS copy-forward) and the batched signature
# verifier's worker fan-out. nested is here because its commit hook
# reads a borrowed (uncopied) stored document while later blocks stage;
# the docstore suite's borrowing reader is what would catch a write
# into one.
RACE_PKGS = ./internal/mempool ./internal/parallel ./internal/ledger ./internal/consensus ./internal/server ./internal/bench ./internal/storage ./internal/docstore ./internal/query ./internal/obs ./internal/shard ./internal/txn ./internal/keys ./internal/driver ./internal/nested

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

# Reproduce the parallel-validation experiment (wall-clock sweep plus
# the virtual-time consensus leg) at the paper-mix scale: ~110k
# transactions through the validation sweep.
bench-parallel:
	$(GO) run ./cmd/scdb-bench -exp parallel -paper

# Storage-engine experiment: commit throughput and reopen/recovery
# time, memory vs disk, across block sizes.
bench-storage:
	$(GO) run ./cmd/scdb-bench -exp storage

# Mempool-subsystem experiment: batched parallel admission vs serial
# CheckTx, plus conflict-aware vs FIFO block packing.
bench-mempool:
	$(GO) run ./cmd/scdb-bench -exp mempool

# Commit-stage experiment: serial apply vs per-conflict-group
# appliers, the serialized validate→commit loop vs the overlapped
# pipeline (wall clock, both backends), and the commit-bound consensus
# simulation (virtual time, deterministic).
bench-commit:
	$(GO) run ./cmd/scdb-bench -exp commit

# Query-planner experiment: planned (index point/range/intersect/
# union) reads vs forced full scans across collection sizes, plus
# sustained query throughput concurrent with block commits on both
# backends.
bench-query:
	$(GO) run ./cmd/scdb-bench -exp query

# MVCC snapshot-read experiment: the marketplace query mix on
# height-pinned snapshots, idle vs concurrent with block commits, both
# backends — quantifies query-vs-commit interference on the fence-free
# read path.
bench-mvcc:
	$(GO) run ./cmd/scdb-bench -exp mvcc

# Observability overhead: the pipelined commit with a live metrics
# registry plus per-tx stage tracing vs the no-op (nil-registry)
# build, gated at 3% — instrumentation must stay within noise of off.
bench-obs:
	$(GO) run ./cmd/scdb-bench -exp obs -obsgate 3

# Horizontal-sharding experiment: per-cross-rate makespan speedup over
# shard count — near-linear at 0% cross-shard, degrading gracefully as
# the 2PC rate sweeps up.
bench-shard:
	$(GO) run ./cmd/scdb-bench -exp shard

# Admission fast-path experiment: open-loop Poisson traffic from a
# million-user keypair population through CheckTxBatch → commit,
# sweeping offered load, caches on vs off — the throughput-gain and
# p99-latency proof for the batched signature verifier and the
# canonical-bytes cache.
bench-traffic:
	$(GO) run ./cmd/scdb-bench -exp traffic

# Deep-commit-pipeline experiment: the depth sweep D=1,2,4,8 (blocks
# concurrently mid-apply behind stacked footprint fences, sealing in
# height order), both backends, with every depth's fingerprint checked
# byte-for-byte against the sequential reference, plus the commit-bound
# consensus simulation over server CommitDepth.
bench-pipeline:
	$(GO) run ./cmd/scdb-bench -exp pipeline

# Seconds-scale smoke run of the parallel, storage, mempool, commit,
# pipeline, query, mvcc, obs, shard, and traffic experiments — part of
# the default `make test` gate so a broken experiment path fails the
# build, not the next benchmarking session. Writes the
# machine-readable results alongside the tables (obs is ungated here:
# the smoke gate is shape, not noise; the pipeline leg still hard-fails
# on any fingerprint divergence from the sequential reference).
bench-smoke:
	$(GO) run ./cmd/scdb-bench -exp parallel,storage,mempool,commit,pipeline,query,mvcc,obs,shard,traffic -json bench-smoke.json -batches 1 -batchtxs 64 -parallel 1,4 -storageblocks 2 -storagesizes 64 -mempooltxs 256 -commitblocks 3 -committxs 96 -conflicts 0.25,0.5 -pipeblocks 4 -pipetxs 64 -pipedepths 1,2,4 -pipeworkers 2 -querydocs 512,4096 -queryreps 16 -queryblocks 2 -querytxs 64 -queryreaders 2 -mvccblocks 4 -mvcctxs 64 -mvccreaders 2 -shardcounts 1,2 -shardcross 0,0.25 -shardchains 8 -shardrounds 2 -trafficusers 256 -traffictxs 256 -trafficinputs 2 -trafficrates 4000 -trafficbatch 32 -trafficdepths 1,2 -trafficbackends memory

ci: test test-race
