package smartchaindb

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// classifiedPanics is the number of panic( call sites in non-test code
// outside the frozen ETH-SC baseline (internal/minisol,
// internal/ethchain) and the repo benchmark. Each one carries, in the
// comment directly above it, why it is not a returned error:
// "invariant:" (only a bug reaches it) or "fail-stop:" (the storage
// backend lost a write and the node must not go on).
const classifiedPanics = 21

// TestEveryPanicIsADecision keeps a new panic from arriving unnoticed:
// it must be classified where it stands, and the count above bumped.
// Anything input or the environment can reach, and a caller can
// handle, is a returned error instead.
func TestEveryPanicIsADecision(t *testing.T) {
	var sites []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch filepath.ToSlash(path) {
			case "benchmark", "internal/minisol", "internal/ethchain":
				return filepath.SkipDir
			}
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // .git, build outputs
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines := strings.Split(string(src), "\n")
		for i, line := range lines {
			code := strings.TrimSpace(line)
			if strings.HasPrefix(code, "//") || !strings.Contains(code, "panic(") {
				continue
			}
			site := fmt.Sprintf("%s:%d", path, i+1)
			sites = append(sites, site)
			// The reason is the comment block ending on the line above.
			classified := false
			for j := i - 1; j >= 0 && strings.HasPrefix(strings.TrimSpace(lines[j]), "//"); j-- {
				if c := lines[j]; strings.Contains(c, "// invariant:") || strings.Contains(c, "// fail-stop:") {
					classified = true
					break
				}
			}
			if !classified {
				t.Errorf("%s: panic with no reason above it: classify it (// invariant: … or // fail-stop: …, or return an error), then bump the count", site)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != classifiedPanics {
		t.Fatalf("%d non-test panic sites, want %d: classify it, then bump the count\n%s", len(sites), classifiedPanics, strings.Join(sites, "\n"))
	}
}
