package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestRunTrafficSmall runs the traffic experiment at toy scale and
// checks the structural invariants: every offered transaction is
// admitted and committed (the workload is valid by construction) at
// every offered rate, dedup fires on the multi-input transfers, the
// quantiles are ordered, and the report renders. The backend follows
// the tier-1 SCDB_BACKEND switch so the disk gate exercises the
// traffic node's WAL-backed leg too.
func TestRunTrafficSmall(t *testing.T) {
	backend := "memory"
	if os.Getenv("SCDB_BACKEND") == "disk" {
		backend = "disk"
	}
	p := TrafficParams{
		Users:    64,
		Txs:      96,
		Inputs:   3,
		Batch:    16,
		Workers:  2,
		Rates:    []float64{3000, 12000},
		Backends: []string{backend},
		Seed:     5,
	}
	r, err := RunTraffic(p)
	if err != nil {
		t.Fatal(err)
	}

	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (rates 3000, 12000)", len(r.Rows))
	}
	for i, row := range r.Rows {
		if row.Rate != p.Rates[i] || row.Backend != backend {
			t.Fatalf("row %d is %s rate %.0f, want %s rate %.0f", i, row.Backend, row.Rate, backend, p.Rates[i])
		}
		if row.Admitted != p.Txs || row.Committed != p.Txs || row.Rejected != 0 {
			t.Fatalf("%s rate %.0f: admitted=%d committed=%d rejected=%d, want %d/%d/0",
				row.Backend, row.Rate, row.Admitted, row.Committed, row.Rejected, p.Txs, p.Txs)
		}
		if row.AdmitP50 <= 0 || row.AdmitP99 < row.AdmitP50 || row.AdmitP999 < row.AdmitP99 {
			t.Fatalf("admission quantiles not monotone: p50=%v p99=%v p999=%v",
				row.AdmitP50, row.AdmitP99, row.AdmitP999)
		}
		if row.CommitP50 <= 0 || row.CommitP99 < row.CommitP50 || row.CommitP999 < row.CommitP99 {
			t.Fatalf("commit quantiles not monotone: p50=%v p99=%v p999=%v",
				row.CommitP50, row.CommitP99, row.CommitP999)
		}
		if row.CommitP50 < row.AdmitP50 {
			t.Fatalf("commit p50 %v below admission p50 %v", row.CommitP50, row.AdmitP50)
		}
		if row.SigTasks == 0 || row.DedupHits == 0 {
			t.Fatalf("leg saw no dedup: tasks=%d hits=%d", row.SigTasks, row.DedupHits)
		}
	}

	var buf bytes.Buffer
	PrintTraffic(&buf, r)
	out := buf.String()
	for _, want := range []string{"keygen", "open-loop", "CommitStart joined", "p99", backend} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestTrafficWorkloadShape pins the generated workload: each transfer
// spends Inputs outputs of its funding CREATE under one key, so its
// signature triples are identical and dedup collapses them.
func TestTrafficWorkloadShape(t *testing.T) {
	p := TrafficParams{Users: 8, Txs: 6, Inputs: 4, Seed: 3}
	p.fill()
	p.Users, p.Txs, p.Inputs = 8, 6, 4 // fill() raised them; restore toy scale
	users := trafficUsers(p.Users, p.Seed)
	backing, stream := trafficWorkload(p, users)
	if len(backing) != p.Txs || len(stream) != p.Txs {
		t.Fatalf("workload = %d backing / %d stream, want %d each", len(backing), len(stream), p.Txs)
	}
	for i, tr := range stream {
		if len(tr.Inputs) != p.Inputs {
			t.Fatalf("tx %d: %d inputs, want %d", i, len(tr.Inputs), p.Inputs)
		}
		ff := tr.Inputs[0].Fulfillment
		for j, in := range tr.Inputs {
			if in.Fulfillment != ff {
				t.Fatalf("tx %d input %d: fulfillment differs — dedup target broken", i, j)
			}
		}
	}
}
