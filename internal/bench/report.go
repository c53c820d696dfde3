package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// Report accumulates every selected experiment's result struct for
// the -json emission. The structs marshal as-is: durations are
// nanosecond integers.
type Report struct {
	GoMaxProcs  int           `json:"gomaxprocs"`
	Experiments []ReportEntry `json:"experiments"`
}

// ReportEntry is one experiment's full result under its -exp name.
type ReportEntry struct {
	Name   string `json:"name"`
	Result any    `json:"result"`
}

// NewReport starts an empty report.
func NewReport() *Report {
	return &Report{GoMaxProcs: runtime.GOMAXPROCS(0)}
}

// Add records one experiment's result.
func (r *Report) Add(name string, result any) {
	r.Experiments = append(r.Experiments, ReportEntry{Name: name, Result: result})
}

// WriteFile writes the report as indented JSON to path.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: write report: %w", err)
	}
	return nil
}
