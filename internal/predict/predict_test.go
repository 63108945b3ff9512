package predict

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pioeval/internal/stats"
)

// depthOf returns the height of the tree rooted at n.
func depthOf(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	return 1 + max(depthOf(n.left), depthOf(n.right))
}

// makeLinear builds y = 5 + 2a - 3b (+noise).
func makeLinear(n int, noise float64, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a, b := rng.Float64()*10, rng.Float64()*10
		X[i] = []float64{a, b}
		y[i] = 5 + 2*a - 3*b + rng.NormFloat64()*noise
	}
	return X, y
}

// makeNonlinear builds y = sin(a)*10 + b*b (+noise): linear models fail.
func makeNonlinear(n int, noise float64, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a, b := rng.Float64()*6, rng.Float64()*4
		X[i] = []float64{a, b}
		y[i] = math.Sin(a)*10 + b*b + rng.NormFloat64()*noise
	}
	return X, y
}

func TestNNLearnsLinear(t *testing.T) {
	X, y := makeLinear(300, 0.1, 1)
	testX, testY := makeLinear(100, 0, 2)
	nn := NewNN(2, DefaultNNConfig())
	if err := nn.Train(X, y); err != nil {
		t.Fatal(err)
	}
	mae := MAE(nn.Predict, testX, testY)
	if mae > 2 {
		t.Errorf("NN MAE on linear data = %.3f, want < 2", mae)
	}
}

func TestNNBeatsLinearOnNonlinear(t *testing.T) {
	// The Schmid & Kunkel claim (C4): NN beats the linear model on
	// nonlinear response surfaces.
	X, y := makeNonlinear(500, 0.1, 3)
	testX, testY := makeNonlinear(200, 0, 4)

	nn := NewNN(2, DefaultNNConfig())
	if err := nn.Train(X, y); err != nil {
		t.Fatal(err)
	}
	lin, err := stats.MultipleRegression(X, y)
	if err != nil {
		t.Fatal(err)
	}
	nnMAE := MAE(nn.Predict, testX, testY)
	linMAE := MAE(lin.Predict, testX, testY)
	if nnMAE >= linMAE {
		t.Fatalf("NN MAE %.3f should beat linear MAE %.3f on nonlinear data", nnMAE, linMAE)
	}
	if linMAE/nnMAE < 1.5 {
		t.Errorf("NN advantage only %.2fx, want >= 1.5x", linMAE/nnMAE)
	}
}

func TestNNInputValidation(t *testing.T) {
	nn := NewNN(2, DefaultNNConfig())
	if err := nn.Train(nil, nil); err == nil {
		t.Error("empty training should error")
	}
	if err := nn.Train([][]float64{{1, 2, 3}}, []float64{1}); err == nil {
		t.Error("dim mismatch should error")
	}
}

func TestActivations(t *testing.T) {
	if ReLU.apply(-1) != 0 || ReLU.apply(2) != 2 {
		t.Error("relu")
	}
	if ReLU.deriv(0) != 0 || ReLU.deriv(1) != 1 {
		t.Error("relu deriv")
	}
	if !approxEq(Tanh.apply(0), 0, 1e-12) || Tanh.apply(100) > 1 {
		t.Error("tanh")
	}
	if s := Sigmoid.apply(0); !approxEq(s, 0.5, 1e-12) {
		t.Error("sigmoid")
	}
	if d := Sigmoid.deriv(0.5); !approxEq(d, 0.25, 1e-12) {
		t.Error("sigmoid deriv")
	}
}

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// fitTree fits one CART tree on all of (X, y), the way TrainForest fits
// each bootstrap sample.
func fitTree(X [][]float64, y []float64, cfg TreeConfig) *Tree {
	tr := &Tree{cfg: cfg}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	tr.root = tr.build(X, y, idx, 0, nil)
	return tr
}

func TestTreeFitsStepFunction(t *testing.T) {
	// y = 10 for x<5, else 20: a single split suffices.
	var X [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		x := float64(i) / 10
		X = append(X, []float64{x})
		if x < 5 {
			y = append(y, 10)
		} else {
			y = append(y, 20)
		}
	}
	tree := fitTree(X, y, DefaultTreeConfig())
	if got := tree.Predict([]float64{1}); got != 10 {
		t.Errorf("predict(1) = %v", got)
	}
	if got := tree.Predict([]float64{9}); got != 20 {
		t.Errorf("predict(9) = %v", got)
	}
	if d := depthOf(tree.root); d > 3 {
		t.Errorf("tree depth %d too deep for a step function", d)
	}
}

func TestTreeMinLeafRespected(t *testing.T) {
	X, y := makeNonlinear(100, 0, 5)
	tree := fitTree(X, y, TreeConfig{MaxDepth: 50, MinLeafSize: 25})
	if d := depthOf(tree.root); d > 3 {
		t.Errorf("large leaves should limit depth, got %d", d)
	}
}

func TestForestBeatsLinearOnNonlinear(t *testing.T) {
	// The Sun et al. claim (C5): RF predicts nonlinear I/O response well.
	X, y := makeNonlinear(500, 0.1, 6)
	testX, testY := makeNonlinear(200, 0, 7)
	f, err := TrainForest(X, y, DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	lin, _ := stats.MultipleRegression(X, y)
	fMAE := MAE(f.Predict, testX, testY)
	linMAE := MAE(lin.Predict, testX, testY)
	if fMAE >= linMAE {
		t.Fatalf("forest MAE %.3f should beat linear %.3f", fMAE, linMAE)
	}
}

func TestForestBeatsSingleTree(t *testing.T) {
	X, y := makeNonlinear(400, 2.0, 8) // noisy: bagging helps
	testX, testY := makeNonlinear(200, 0, 9)
	tree := fitTree(X, y, DefaultTreeConfig())
	forest, _ := TrainForest(X, y, DefaultForestConfig())
	if n := len(forest.trees); n != 50 {
		t.Errorf("trees = %d", n)
	}
	tRMSE := RMSE(tree.Predict, testX, testY)
	fRMSE := RMSE(forest.Predict, testX, testY)
	if fRMSE >= tRMSE {
		t.Errorf("forest RMSE %.3f should beat tree %.3f on noisy data", fRMSE, tRMSE)
	}
}

func TestKNN(t *testing.T) {
	X := [][]float64{{0}, {1}, {10}, {11}}
	y := []float64{5, 5, 50, 50}
	m, err := NewKNN(2, X, y)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{0.5}); got != 5 {
		t.Errorf("knn(0.5) = %v", got)
	}
	if got := m.Predict([]float64{10.5}); got != 50 {
		t.Errorf("knn(10.5) = %v", got)
	}
	if _, err := NewKNN(0, X, y); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := NewKNN(1, nil, nil); err == nil {
		t.Error("empty should error")
	}
}

func TestErrorMetrics(t *testing.T) {
	pred := func(x []float64) float64 { return x[0] }
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{2, 2, 2}
	if got := MAE(pred, X, y); !approxEq(got, 2.0/3, 1e-12) {
		t.Errorf("MAE = %v", got)
	}
	if got := RMSE(pred, X, y); !approxEq(got, math.Sqrt(2.0/3), 1e-12) {
		t.Errorf("RMSE = %v", got)
	}
	if MAE(pred, nil, nil) != 0 || RMSE(pred, nil, nil) != 0 {
		t.Error("empty metrics")
	}
}

func TestGrammarRoundTrip(t *testing.T) {
	seq := []int{1, 2, 3, 1, 2, 3, 1, 2, 3, 4}
	g := InferGrammar(seq)
	if !reflect.DeepEqual(g.Expand(), seq) {
		t.Fatalf("expand mismatch: %v", g.Expand())
	}
	if g.Size() >= len(seq) {
		t.Errorf("grammar size %d should compress %d", g.Size(), len(seq))
	}
	if g.String() == "" {
		t.Error("empty grammar string")
	}
}

func TestGrammarCompressionOnLoops(t *testing.T) {
	// A checkpoint-like loop: (open write write close) x 64.
	var seq []int
	for i := 0; i < 64; i++ {
		seq = append(seq, 0, 1, 1, 2)
	}
	ratio := CompressionRatio(seq)
	if ratio < 8 {
		t.Errorf("loop compression ratio = %.1f, want >= 8", ratio)
	}
	// Random sequences compress poorly.
	rng := rand.New(rand.NewSource(10))
	var rnd []int
	for i := 0; i < 256; i++ {
		rnd = append(rnd, rng.Intn(50))
	}
	if rr := CompressionRatio(rnd); rr > ratio/2 {
		t.Errorf("random ratio %.1f should be far below loop ratio %.1f", rr, ratio)
	}
	if CompressionRatio(nil) != 1 {
		t.Error("empty ratio")
	}
}

// Property: InferGrammar round-trips any sequence.
func TestPropGrammarRoundTrip(t *testing.T) {
	f := func(raw []uint8) bool {
		seq := make([]int, len(raw))
		for i, v := range raw {
			seq[i] = int(v % 8)
		}
		g := InferGrammar(seq)
		got := g.Expand()
		if len(seq) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSeqPredictorPeriodicPattern(t *testing.T) {
	// Periodic I/O phase pattern: compute(0) write(1) barrier(2) repeated.
	var seq []int
	for i := 0; i < 50; i++ {
		seq = append(seq, 0, 1, 2)
	}
	sp := NewSeqPredictor(4)
	sp.Observe(seq)
	if got, ok := sp.Predict([]int{0, 1}); !ok || got != 2 {
		t.Errorf("predict after [0 1] = %v,%v want 2", got, ok)
	}
	if got, ok := sp.Predict([]int{2}); !ok || got != 0 {
		t.Errorf("predict after [2] = %v,%v want 0", got, ok)
	}
	if acc := sp.Accuracy(seq, 3); acc < 0.95 {
		t.Errorf("accuracy on periodic pattern = %.2f, want >= 0.95", acc)
	}
}

func TestSeqPredictorUnknownContext(t *testing.T) {
	sp := NewSeqPredictor(3)
	sp.Observe([]int{1, 2, 3})
	if _, ok := sp.Predict([]int{9}); ok {
		t.Error("unknown context should not predict")
	}
	if sp.Accuracy(nil, 1) != 0 {
		t.Error("empty accuracy")
	}
}

func TestSeqPredictorLongestContextWins(t *testing.T) {
	sp := NewSeqPredictor(3)
	// After [1], usually 2; but after [5 1], always 9.
	sp.Observe([]int{1, 2, 1, 2, 1, 2, 5, 1, 9, 5, 1, 9})
	if got, _ := sp.Predict([]int{1}); got != 2 {
		t.Errorf("short ctx = %d, want 2", got)
	}
	if got, _ := sp.Predict([]int{5, 1}); got != 9 {
		t.Errorf("long ctx = %d, want 9", got)
	}
}
