// Package mmreliable_test hosts the benchmark harness that regenerates
// every table and figure of the paper's evaluation (run with
// `go test -bench=. -benchmem`); the micro-benchmarks of the hot paths
// live in the packages they measure. Each BenchmarkFigXX wraps the
// corresponding experiments.FigXX generator; the table it produces is
// printed once per benchmark so `go test -bench` output doubles as the
// reproduction record. The mmbench command prints the same tables without
// the benchmarking overhead.
package mmreliable_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"mmreliable/internal/experiments"
	"mmreliable/internal/stats"
)

// benchCfg keeps bench iterations affordable while remaining deterministic.
var benchCfg = experiments.Config{Seed: 1, Quick: true}

var printOnce sync.Map

// runFigure executes one figure generator b.N times and prints its table
// once.
func runFigure(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var table *stats.Table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table = e.Run(benchCfg)
	}
	b.StopTimer()
	if _, done := printOnce.LoadOrStore(id, true); !done && table != nil {
		fmt.Fprintf(os.Stderr, "\n%s\n", table.String())
	}
}

// One benchmark per paper table/figure.

func BenchmarkFig04aReflectorCDF(b *testing.B)   { runFigure(b, "4a") }
func BenchmarkFig04bPathHeatmap(b *testing.B)    { runFigure(b, "4b") }
func BenchmarkFig08DelaySpread(b *testing.B)     { runFigure(b, "8") }
func BenchmarkFig11aSuperres(b *testing.B)       { runFigure(b, "11a") }
func BenchmarkFig11bTwoSinc(b *testing.B)        { runFigure(b, "11b") }
func BenchmarkFig13dPattern(b *testing.B)        { runFigure(b, "13d") }
func BenchmarkFig14Sensitivity(b *testing.B)     { runFigure(b, "14") }
func BenchmarkFig15aPhaseScan(b *testing.B)      { runFigure(b, "15a") }
func BenchmarkFig15bAmpScan(b *testing.B)        { runFigure(b, "15b") }
func BenchmarkFig15cPhaseStability(b *testing.B) { runFigure(b, "15c") }
func BenchmarkFig15dOracleGap(b *testing.B)      { runFigure(b, "15d") }
func BenchmarkFig16Blockage(b *testing.B)        { runFigure(b, "16") }
func BenchmarkFig17aPowerRotation(b *testing.B)  { runFigure(b, "17a") }
func BenchmarkFig17bTrackAccuracy(b *testing.B)  { runFigure(b, "17b") }
func BenchmarkFig17cTracking(b *testing.B)       { runFigure(b, "17c") }
func BenchmarkFig18aStatic(b *testing.B)         { runFigure(b, "18a") }
func BenchmarkFig18bReliability(b *testing.B)    { runFigure(b, "18b") }
func BenchmarkFig18cTradeoff(b *testing.B)       { runFigure(b, "18c") }
func BenchmarkFig18dOverhead(b *testing.B)       { runFigure(b, "18d") }
func BenchmarkFig19Band60GHz(b *testing.B)       { runFigure(b, "19") }

// Ablations and §8 extensions beyond the paper's figures.

func BenchmarkAblationQuantization(b *testing.B) { runFigure(b, "a1") }
func BenchmarkAblationMaintenance(b *testing.B)  { runFigure(b, "a2") }
func BenchmarkAblationCorrBlockage(b *testing.B) { runFigure(b, "a3") }
func BenchmarkAblationCCRefresh(b *testing.B)    { runFigure(b, "a4") }
func BenchmarkAblationTraining(b *testing.B)     { runFigure(b, "a5") }
func BenchmarkExtensionIRS(b *testing.B)         { runFigure(b, "e1") }
func BenchmarkExtensionHandover(b *testing.B)    { runFigure(b, "e2") }
func BenchmarkExtensionRateAdapt(b *testing.B)   { runFigure(b, "e3") }
func BenchmarkExtensionMultiUser(b *testing.B)   { runFigure(b, "e4") }
func BenchmarkExtensionStation(b *testing.B)     { runFigure(b, "e5") }
func BenchmarkExtensionCluster(b *testing.B)     { runFigure(b, "e6") }
func BenchmarkExtensionMetro(b *testing.B)       { runFigure(b, "e7") }
func BenchmarkExtensionHybrid(b *testing.B)      { runFigure(b, "e8") }
