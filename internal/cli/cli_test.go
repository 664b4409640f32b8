package cli

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiment"
	"repro/internal/pattern"
)

func TestParsePattern(t *testing.T) {
	cases := map[string]pattern.Kind{
		"wedge":    pattern.Wedge,
		"triangle": pattern.Triangle,
		"TRIANGLE": pattern.Triangle,
		" 4clique": pattern.FourClique,
		"4-cycle":  pattern.FourCycle,
		"c4":       pattern.FourCycle,
		"5clique":  pattern.FiveClique,
	}
	for in, want := range cases {
		got, err := ParsePattern(in)
		if err != nil || got != want {
			t.Errorf("ParsePattern(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePattern("pentagon"); err == nil {
		t.Error("unknown pattern should error")
	}
}

func TestParseAlgo(t *testing.T) {
	cases := map[string]experiment.Algo{
		"wsd-l":  experiment.AlgoWSDL,
		"WSD-H":  experiment.AlgoWSDH,
		"wsd":    experiment.AlgoWSDH,
		"gps":    experiment.AlgoGPS,
		"gps-a":  experiment.AlgoGPSA,
		"gpsa":   experiment.AlgoGPSA,
		"triest": experiment.AlgoTriest,
		"thinkd": experiment.AlgoThinkD,
		"wrs":    experiment.AlgoWRS,
	}
	for in, want := range cases {
		got, err := ParseAlgo(in)
		if err != nil || got != want {
			t.Errorf("ParseAlgo(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseAlgo("magic"); err == nil {
		t.Error("unknown algorithm should error")
	}
}

func TestGenerateModel(t *testing.T) {
	params := ModelParams{N: 200, M: 3, P: 0.4, Communities: 5}
	for _, model := range []string{"ff", "hk", "ba", "er", "copy", "planted"} {
		edges, err := GenerateModel(model, params, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if len(edges) == 0 {
			t.Fatalf("%s: no edges", model)
		}
	}
	if _, err := GenerateModel("warp", params, rand.New(rand.NewSource(1))); err == nil {
		t.Error("unknown model should error")
	}
	if _, err := GenerateModel("planted", ModelParams{N: 100}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("planted without communities should error")
	}
}

func TestParsePatterns(t *testing.T) {
	got, err := ParsePatterns("triangle, wedge,4clique")
	if err != nil {
		t.Fatal(err)
	}
	want := []pattern.Kind{pattern.Triangle, pattern.Wedge, pattern.FourClique}
	if len(got) != len(want) {
		t.Fatalf("ParsePatterns = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParsePatterns = %v, want %v", got, want)
		}
	}
	for name, in := range map[string]string{
		"empty":     "",
		"commas":    ",,",
		"unknown":   "triangle,pentagon",
		"duplicate": "wedge,triangle,wedge",
	} {
		if _, err := ParsePatterns(in); err == nil {
			t.Errorf("%s (%q): accepted", name, in)
		}
	}
}

func TestParseWorkers(t *testing.T) {
	got, err := ParseWorkers(" host1:8080, http://host2:9090 ,host3:8080")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"host1:8080", "http://host2:9090", "host3:8080"}
	if len(got) != len(want) {
		t.Fatalf("ParseWorkers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseWorkers = %v, want %v", got, want)
		}
	}
	for name, in := range map[string]string{
		"empty":     "",
		"commas":    ",,",
		"duplicate": "a:1,b:2,a:1",
	} {
		if _, err := ParseWorkers(in); err == nil {
			t.Errorf("%s (%q): accepted", name, in)
		}
	}
}

// TestStartCPUProfile checks that a started profile lands on disk as a
// gzip-compressed pprof file once stopped, that an empty path is a no-op, and
// that an unwritable path is an error.
func TestStartCPUProfile(t *testing.T) {
	stop, err := StartCPUProfile("")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	stop, err = StartCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("profile is %d bytes without the gzip header", len(data))
	}
	if _, err := StartCPUProfile(filepath.Join(t.TempDir(), "missing", "cpu.pprof")); err == nil {
		t.Fatal("profile into a missing directory started")
	}
}
