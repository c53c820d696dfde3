package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata/golden files from this run")

// goldenArgs runs the paper's six experiments at smoke scale. They run
// in virtual time, so the output is the same bytes on every run and
// every host: a change to it is a change to the protocol's timing or
// outcomes, to be reviewed as a diff of the golden file.
var goldenArgs = []string{
	"-exp", "fig2,fig7,fig8,usability,mix,recovery",
	"-auctions", "1", "-bidders", "3", "-nodes", "4,8", "-sizes", "110,1090",
}

// TestPaperExperimentsGolden compares the paper experiments' output
// with testdata/golden/paper-experiments.txt. After a deliberate
// change, `go test ./cmd/scdb-bench -run Golden -update` rewrites it.
func TestPaperExperimentsGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(goldenArgs, &out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "paper-experiments.txt")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Fatalf("scdb-bench %s differs from %s at line %d:\n got  %q\n want %q\n(-update rewrites the file)",
				strings.Join(goldenArgs, " "), path, i+1, g, e)
		}
	}
}
