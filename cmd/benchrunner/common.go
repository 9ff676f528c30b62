package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// benchEnv is the machine header every bench artifact carries; embedding
// it flattens the fields into the report JSON, so artifact schemas are
// unchanged by where the fields live.
type benchEnv struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	NumCPU int    `json:"num_cpu"`
}

func newBenchEnv() benchEnv {
	return benchEnv{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU()}
}

// benchResult is one machine-readable benchmark row. The fields mirror what
// `go test -bench -benchmem` prints, so regressions can be diffed by CI or
// scripts without parsing bench output. FDs, on the FD-discovery curve's
// rows, is the number of FDs the run found.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	FDs         int     `json:"fds,omitempty"`
}

// writeBenchReport marshals any report value to path and prints its rows.
func writeBenchReport(path string, report any, results []benchResult, width int) error {
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("%-*s %14.0f ns/op %12d B/op %10d allocs/op\n",
			width, r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	return nil
}

// partialWriter returns the shared interrupt handler of the bench modes:
// write the rows measured before the interrupt (report must be a pointer,
// results the report's live row slice), note the partial artifact, and
// hand the cause back so the caller exits with the interrupt status.
func partialWriter(path string, report any, results *[]benchResult, width int) func(error) error {
	return func(err error) error {
		if werr := writeBenchReport(path, report, *results, width); werr != nil {
			return werr
		}
		fmt.Printf("wrote %s (partial)\n", path)
		return err
	}
}
