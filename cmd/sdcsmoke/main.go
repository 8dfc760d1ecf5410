// Command sdcsmoke is the silent-data-corruption gate: it sweeps seeded
// device-level fault campaigns (bit flips in tile memory, exchange-payload
// corruption) over ABFT-armed solves and verifies every claimed-converged
// answer against an independent float64 host oracle. Each campaign must end
// in one of three honest outcomes — clean convergence, detection followed by
// checkpoint/restart recovery, or a typed breakdown rejection — and NEVER in
// a wrong answer presented as converged. One silent escape fails the gate.
//
// The sweep runs on the native backend by default (the serving path, where a
// missed corruption would reach clients); -backend sim replays the same
// campaigns on the simulator, and replay identity means the outcome table is
// the same on both.
//
//	sdcsmoke                      # 24 seeds x 2 fault kinds on native
//	sdcsmoke -seeds 50 -rate 0.02 # heavier campaign
//	sdcsmoke -backend sim         # same campaigns on the simulator
package main

import (
	"flag"
	"fmt"
	"os"

	"ipusparse/internal/bench"
	"ipusparse/internal/ipu"
	"ipusparse/internal/sparse"
)

func main() {
	seeds := flag.Int("seeds", 24, "number of campaign seeds per fault kind")
	rate := flag.Float64("rate", 0.02, "per-consultation fault probability")
	maxFaults := flag.Int("max-faults", 8, "cap on injected faults per campaign")
	backendName := flag.String("backend", "native", "execution backend to sweep (native or sim)")
	genSpec := flag.String("gen", "poisson2d:12", "generator spec of the swept system")
	tiles := flag.Int("tiles", 8, "simulated tiles")
	flag.Parse()
	if err := run(*seeds, *rate, *maxFaults, *backendName, *genSpec, *tiles); err != nil {
		fmt.Fprintln(os.Stderr, "sdcsmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("sdcsmoke: PASS")
}

func run(seeds int, rate float64, maxFaults int, backendName, genSpec string, tiles int) error {
	m, err := sparse.GenByName(genSpec)
	if err != nil {
		return err
	}
	mc := ipu.Mk2M2000()
	mc.Chips = 1
	mc.TilesPerChip = tiles

	var clean, recovered, rejected, escapes, injected int
	for _, kind := range []string{"bit-flip", "exchange-corrupt"} {
		row, err := bench.SDCCampaign(bench.SDCCampaignSpec{
			Backend: backendName, Kind: kind, Seeds: seeds, Rate: rate, MaxFaults: maxFaults,
			Machine: mc, Matrix: m,
		})
		if err != nil {
			return fmt.Errorf("%s %w", kind, err)
		}
		for _, line := range row.EscapeLog {
			fmt.Fprintln(os.Stderr, "sdcsmoke: SILENT ESCAPE:", line)
		}
		clean += row.Clean
		recovered += row.Recovered
		rejected += row.Rejected
		escapes += row.Escapes
		injected += row.Injected
	}

	total := 2 * seeds
	fmt.Printf("sdcsmoke: %s backend, %d campaigns (rate %g, max %d faults): %d clean, %d recovered, %d typed-rejected, %d SILENT ESCAPES\n",
		backendName, total, rate, maxFaults, clean, recovered, rejected, escapes)
	if injected == 0 {
		return fmt.Errorf("campaigns injected no faults — the sweep is not exercising the guards")
	}
	if recovered == 0 {
		return fmt.Errorf("no campaign recovered in place — detections are not reaching checkpoint/restart")
	}
	if escapes != 0 {
		return fmt.Errorf("%d silent escapes: corrupted answers were presented as converged", escapes)
	}
	return nil
}
