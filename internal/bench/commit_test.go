package bench

import (
	"fmt"
	"io"
	"runtime"
	"testing"
)

// TestRunCommitSmoke pins the commit experiment's acceptance shape on
// a small instance: every worker count must land on the serial
// commit's exact state bytes, and the overlapped pipeline must beat
// the serialized validate→commit loop. The deterministic anchor is
// the virtual-time consensus leg (a commit-bound cluster where the
// serialized commit occupies the execution resource and the
// overlapped one runs on the commit resource) — host-independent, and
// the leg that must win outright. The wall-clock pipeline rows only
// assert no-regression within noise: at smoke scale the overlap
// window is a few percent of the loop, and the gate runs test
// packages concurrently, so a spare core is not guaranteed even when
// GOMAXPROCS > 1. A real serialization regression adds the entire
// commit stage back to the loop, far outside the band.
//
// The band is judged on the best of five runs of the experiment: on
// a two-core host the validator, the committer and its appliers
// outnumber the cores, and while other package binaries hold one of
// them (`go test ./...`) the overlapped run lands 10–30 % behind in a
// third of single runs — at the parent of the one-commit-path change
// as much as after it. A run that misses the band is repeated, by
// which time the competing binaries have mostly finished; the
// regression above misses it every time. Every other assertion holds
// on every run.
func TestRunCommitSmoke(t *testing.T) {
	var late []string
	for run := 0; run < 5; run++ {
		if late = commitSmokeRun(t); len(late) == 0 {
			break
		}
	}
	for _, msg := range late {
		t.Error(msg)
	}
}

// commitSmokeRun runs the smoke instance once, asserts everything but
// the wall-clock band, and returns the band's violations.
func commitSmokeRun(t *testing.T) (late []string) {
	r := RunCommit(CommitParams{
		Blocks:        4,
		BlockTxs:      128,
		Workers:       []int{1, 4},
		ConflictRates: []float64{0.25},
		Reps:          2,
		Seed:          77,
	})
	if len(r.Rows) == 0 || len(r.Pipeline) == 0 {
		t.Fatal("empty commit sweep")
	}
	for _, row := range r.Rows {
		if !row.Match {
			t.Errorf("%s conflict %.0f%% workers %d: pipelined commit diverged from serial state",
				row.Backend, row.Conflict*100, row.Workers)
		}
		if row.Elapsed <= 0 || row.TPS <= 0 {
			t.Errorf("degenerate commit row: %+v", row)
		}
	}
	noise := 1.10
	if runtime.GOMAXPROCS(0) == 1 {
		// No second core: the overlap has no hardware to run on, so
		// this leg measures pure scheduler noise — and under the full
		// `make test` gate other package binaries compete for the same
		// core, stretching the overlapped run by a third on occasion.
		// The sim leg above stays the strict, host-independent win.
		noise = 1.5
	}
	for _, row := range r.Pipeline {
		if !row.Match {
			t.Errorf("%s conflict %.0f%%: overlapped pipeline diverged from serialized state", row.Backend, row.Conflict*100)
		}
		if float64(row.Overlapped) > noise*float64(row.Serialized) {
			late = append(late, fmt.Sprintf("%s conflict %.0f%%: overlapped pipeline regressed past noise (%v vs serialized %v)",
				row.Backend, row.Conflict*100, row.Overlapped, row.Serialized))
		}
	}
	if len(r.SimRows) != 2 {
		t.Fatalf("sim rows = %d, want 2", len(r.SimRows))
	}
	if !r.SimMatch {
		t.Fatal("sim leg: overlapped commit changed committed state")
	}
	ser, ovl := r.SimRows[0], r.SimRows[1]
	if ovl.Throughput <= ser.Throughput {
		t.Errorf("overlapped commit did not raise virtual-time throughput: serialized=%.1f overlapped=%.1f",
			ser.Throughput, ovl.Throughput)
	}
	PrintCommit(io.Discard, r)
	return late
}
