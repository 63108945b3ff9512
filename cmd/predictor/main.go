// Command predictor compares the §IV-B2 prediction models (linear
// regression, neural network, random forest, kNN) on an I/O-time dataset
// generated by sweeping IOR parameters on the simulator.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"

	"pioeval/internal/cli"
	"pioeval/internal/des"
	"pioeval/internal/pfs"
	"pioeval/internal/predict"
	"pioeval/internal/stats"
	"pioeval/internal/workload"
)

func dataset(seed int64, n int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	var X [][]float64
	var y []float64
	for i := 0; i < n; i++ {
		ranks := 2 << rng.Intn(3)
		ts := int64(64<<10) << rng.Intn(5)
		pattern := workload.Pattern(rng.Intn(2))
		shared := rng.Intn(2) == 1
		e := des.NewEngine(seed)
		cfg := pfs.DefaultConfig()
		cfg.NumIONodes = 0
		h := workload.NewHarness(e, pfs.New(e, cfg), ranks, fmt.Sprintf("p%d", i), nil)
		rep := workload.RunIOR(h, workload.IORConfig{
			Ranks: ranks, BlockSize: 4 << 20, TransferSize: ts,
			Pattern: pattern, SharedFile: shared,
		})
		sharedF := 0.0
		if shared {
			sharedF = 1
		}
		X = append(X, []float64{float64(ranks), float64(ts), float64(pattern), sharedF})
		y = append(y, rep.WriteTime.Seconds()*1e3)
	}
	return X, y
}

func main() { cli.Main("predictor", run) }

// run is the whole command: it parses args, writes the report to stdout
// and the flag package's diagnostics to stderr, and returns failures.
func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("predictor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 48, "sweep points per dataset")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if err := cli.MaxArgs(fs, 0); err != nil {
		return err
	}
	if err := cli.RequirePositive(fs, "n"); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "generating %d-point train and test sweeps on the simulator...\n", *n)
	Xtr, ytr := dataset(1, *n)
	Xte, yte := dataset(2, *n)

	lin, err := stats.MultipleRegression(Xtr, ytr)
	if err != nil {
		return err
	}
	nn := predict.NewNN(len(Xtr[0]), predict.DefaultNNConfig())
	if err := nn.Train(Xtr, ytr); err != nil {
		return err
	}
	rf, err := predict.TrainForest(Xtr, ytr, predict.DefaultForestConfig())
	if err != nil {
		return err
	}
	knn, err := predict.NewKNN(3, Xtr, ytr)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "model comparison (predicting IOR write time in ms):\n")
	fmt.Fprintf(stdout, "  %-16s %10s %10s\n", "model", "MAE", "RMSE")
	models := []struct {
		name string
		pred func([]float64) float64
	}{
		{"linear", lin.Predict},
		{"neural-net", nn.Predict},
		{"random-forest", rf.Predict},
		{"knn(k=3)", knn.Predict},
	}
	for _, m := range models {
		fmt.Fprintf(stdout, "  %-16s %10.3f %10.3f\n", m.name,
			predict.MAE(m.pred, Xte, yte), predict.RMSE(m.pred, Xte, yte))
	}
	return nil
}
