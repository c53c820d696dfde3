package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// Everything is sized for the 2-core host the profile was calibrated
// on: two workers in every pool, one block committing behind the one
// being validated (the repo's depth sweep shows no gain past depth 2 on
// two cores), one driver goroutine.
const (
	workers     = 2
	commitDepth = 2
	// reservedSeed derives the single-node systems' escrow and admin
	// accounts; no workload on them uses either.
	reservedSeed = 9300
)

// profile.json freezes the numbers a run's size depends on, so that two
// runs of one commit do the same work: each workload's transactions per
// measured second at seed speed, block sizes, the marketplace's
// virtual-time submit gap. A window is always a fixed count of
// transactions — tx_per_second × --seconds — never a fixed time.
//
//go:embed profile.json
var profileJSON []byte

type profile struct {
	CalibratedOn hostInfo `json:"calibrated_on"`
	// RefChunkUs is how long hostClock's reference chunk takes on the
	// calibration host when nothing disturbs it.
	RefChunkUs  int                        `json:"ref_chunk_us"`
	Seed        int64                      `json:"seed"`
	RunSeconds  int                        `json:"run_seconds"`
	Setups      int                        `json:"setups"`
	ReadQueries int                        `json:"read_queries"`
	ProbeInputs int                        `json:"probe_inputs"`
	Workloads   map[string]workloadProfile `json:"workloads"`
}

type workloadProfile struct {
	TxPerSecond     int    `json:"tx_per_second"`
	BlockTxs        int    `json:"block_txs"`
	PreloadBlockTxs int    `json:"preload_block_txs,omitempty"`
	RivalEvery      int    `json:"rival_every,omitempty"`
	Accounts        int    `json:"accounts,omitempty"`
	PayloadBytes    int    `json:"payload_bytes,omitempty"`
	SubmitGapUs     int    `json:"submit_gap_us,omitempty"`
	Bidders         int    `json:"bidders,omitempty"`
	Chains          int    `json:"chains,omitempty"`
	CrossPercent    int    `json:"cross_percent,omitempty"`
	Why             string `json:"why"`
}

// workloadNames is the order every table and every full run uses.
var workloadNames = []string{"transfer_fanin", "create_durable", "market_cluster4", "shard2_cross"}

func loadProfile() (*profile, error) {
	var p profile
	if err := json.Unmarshal(profileJSON, &p); err != nil {
		return nil, fmt.Errorf("profile.json: %w", err)
	}
	for _, name := range workloadNames {
		if _, ok := p.Workloads[name]; !ok {
			return nil, fmt.Errorf("profile.json: no workload %q", name)
		}
	}
	return &p, nil
}

func newBench(name string, wl workloadProfile) bench {
	switch name {
	case "transfer_fanin":
		return &nodeBench{wl: wl}
	case "create_durable":
		return &nodeBench{wl: wl, durable: true}
	case "market_cluster4":
		return &marketBench{wl: wl}
	case "shard2_cross":
		return &shardBench{wl: wl}
	}
	return nil
}

// hostInfo is the metadata printed with every run, and recorded in
// profile.json for the host the profile was calibrated on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	FS         string `json:"fs"`
}

func thisHost(dir string) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		Go:         runtime.Version(),
		Commit:     "unknown",
		FS:         fsType(dir),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}
