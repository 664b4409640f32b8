// Package cli holds the parsing and lookup helpers shared by the command-line
// tools (wsdcount, wsdtrain, wsdgen, wsdbench, wsdload), kept out of the main
// packages so they are unit-testable.
package cli

import (
	"fmt"
	"math/rand"
	"os"
	"runtime/pprof"
	"strings"

	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// ParsePattern resolves a user-facing pattern name.
func ParsePattern(s string) (pattern.Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "wedge", "path2", "2-path":
		return pattern.Wedge, nil
	case "triangle", "3clique", "3-clique":
		return pattern.Triangle, nil
	case "4cycle", "4-cycle", "square", "c4":
		return pattern.FourCycle, nil
	case "4clique", "four-clique", "4-clique":
		return pattern.FourClique, nil
	case "5clique", "five-clique", "5-clique":
		return pattern.FiveClique, nil
	}
	return 0, fmt.Errorf("unknown pattern %q (wedge, triangle, 4cycle, 4clique, 5clique)", s)
}

// ParsePatterns resolves a comma-separated list of pattern names (e.g.
// "triangle,wedge,4clique") into the multi-pattern counting order: the first
// entry is the primary pattern. Duplicates are rejected here so the mistake
// reads as a flag error rather than a counter-construction error.
func ParsePatterns(s string) ([]pattern.Kind, error) {
	parts := strings.Split(s, ",")
	kinds := make([]pattern.Kind, 0, len(parts))
	seen := make(map[pattern.Kind]bool, len(parts))
	for _, part := range parts {
		if strings.TrimSpace(part) == "" {
			continue
		}
		k, err := ParsePattern(part)
		if err != nil {
			return nil, err
		}
		if seen[k] {
			return nil, fmt.Errorf("pattern %s listed twice", k)
		}
		seen[k] = true
		kinds = append(kinds, k)
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("no patterns in %q", s)
	}
	return kinds, nil
}

// ParseWorkers resolves a comma-separated worker address list (e.g.
// "10.0.0.1:8080,10.0.0.2:8080") for a coordinator deployment. Entries are
// trimmed, empties dropped, and duplicates rejected here so the mistake
// reads as a flag error; scheme normalization (bare host:port gets http://)
// happens in the cluster layer.
func ParseWorkers(s string) ([]string, error) {
	parts := strings.Split(s, ",")
	workers := make([]string, 0, len(parts))
	seen := make(map[string]bool, len(parts))
	for _, part := range parts {
		w := strings.TrimSpace(part)
		if w == "" {
			continue
		}
		if seen[w] {
			return nil, fmt.Errorf("worker %s listed twice", w)
		}
		seen[w] = true
		workers = append(workers, w)
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("no worker addresses in %q", s)
	}
	return workers, nil
}

// ParseAlgo resolves a user-facing algorithm name.
func ParseAlgo(s string) (experiment.Algo, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "wsd-l", "wsdl":
		return experiment.AlgoWSDL, nil
	case "wsd-h", "wsdh", "wsd":
		return experiment.AlgoWSDH, nil
	case "gps":
		return experiment.AlgoGPS, nil
	case "gps-a", "gpsa":
		return experiment.AlgoGPSA, nil
	case "triest":
		return experiment.AlgoTriest, nil
	case "thinkd":
		return experiment.AlgoThinkD, nil
	case "wrs":
		return experiment.AlgoWRS, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (wsd-l, wsd-h, gps, gps-a, triest, thinkd, wrs)", s)
}

// ModelParams carries the generator knobs shared across models; unused fields
// are ignored per model.
type ModelParams struct {
	N           int     // vertices
	M           int     // attachment/out-degree
	P           float64 // model probability
	Communities int     // planted partition community count
}

// GenerateModel builds an edge sequence from a named random-graph model.
func GenerateModel(model string, p ModelParams, rng *rand.Rand) ([]graph.Edge, error) {
	switch strings.ToLower(strings.TrimSpace(model)) {
	case "ff", "forestfire", "forest-fire":
		return gen.ForestFire(p.N, p.P, rng), nil
	case "hk", "holmekim", "holme-kim":
		return gen.HolmeKim(p.N, p.M, 0.8, rng), nil
	case "ba", "barabasi-albert":
		return gen.BarabasiAlbert(p.N, p.M, rng), nil
	case "er", "erdos-renyi":
		return gen.ErdosRenyi(p.N, p.N*p.M, rng), nil
	case "copy", "copying":
		return gen.CopyingModel(p.N, p.M, p.P, rng), nil
	case "planted", "planted-partition":
		if p.Communities < 1 {
			return nil, fmt.Errorf("planted partition needs a positive community count")
		}
		return gen.PlantedPartition(p.Communities, p.N/p.Communities, p.P, 0.001, rng), nil
	}
	return nil, fmt.Errorf("unknown model %q (ff, hk, ba, er, copy, planted)", model)
}

// StartCPUProfile starts writing a CPU profile to path (read it with go tool
// pprof) and returns the function that finishes the profile and closes the
// file. An empty path profiles nothing.
func StartCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
