// Package predict implements the predictive-analytics models the paper's
// §IV-B2 surveys for I/O performance prediction: a feed-forward neural
// network trained with minibatch SGD (Schmid & Kunkel's approach to file
// access-time prediction), random forests of CART regression trees (Sun et
// al.'s approach to execution/I-O time prediction), a k-nearest-neighbor
// baseline, and a Sequitur-style grammar model for I/O sequence prediction
// (the Omnisc'IO approach). Pure stdlib.
package predict

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrBadInput is returned for malformed training data.
var ErrBadInput = errors.New("predict: bad input")

// Activation selects the hidden-layer nonlinearity.
type Activation int

// Supported activations.
const (
	ReLU Activation = iota
	Tanh
	Sigmoid
)

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Tanh:
		return math.Tanh(x)
	default:
		return 1 / (1 + math.Exp(-x))
	}
}

func (a Activation) deriv(y float64) float64 {
	// Derivative expressed in terms of the activated output y.
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	default:
		return y * (1 - y)
	}
}

// NNConfig configures network shape and training.
type NNConfig struct {
	Hidden     []int // hidden layer widths
	Activation Activation
	LearnRate  float64
	Epochs     int
	BatchSize  int
	Seed       int64
}

// DefaultNNConfig returns a small regression network: two hidden layers of
// 32 ReLU units, 200 epochs.
func DefaultNNConfig() NNConfig {
	return NNConfig{
		Hidden: []int{32, 32}, Activation: ReLU,
		LearnRate: 0.01, Epochs: 200, BatchSize: 16, Seed: 1,
	}
}

// NN is a feed-forward regression network (single output).
type NN struct {
	cfg    NNConfig
	sizes  []int // input, hidden..., 1
	w      [][][]float64
	b      [][]float64
	inMean []float64
	inStd  []float64
	outMu  float64
	outSd  float64
}

// NewNN creates an untrained network for inputDim features.
func NewNN(inputDim int, cfg NNConfig) *NN {
	if cfg.LearnRate <= 0 {
		cfg.LearnRate = 0.01
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 100
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	sizes := append([]int{inputDim}, cfg.Hidden...)
	sizes = append(sizes, 1)
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &NN{cfg: cfg, sizes: sizes}
	for l := 1; l < len(sizes); l++ {
		wl := make([][]float64, sizes[l])
		scale := math.Sqrt(2 / float64(sizes[l-1]))
		for j := range wl {
			wl[j] = make([]float64, sizes[l-1])
			for k := range wl[j] {
				wl[j][k] = rng.NormFloat64() * scale
			}
		}
		n.w = append(n.w, wl)
		n.b = append(n.b, make([]float64, sizes[l]))
	}
	return n
}

// normalize computes and applies feature standardization.
func (n *NN) fitNorm(X [][]float64, y []float64) {
	d := len(X[0])
	n.inMean = make([]float64, d)
	n.inStd = make([]float64, d)
	for j := 0; j < d; j++ {
		var s float64
		for _, row := range X {
			s += row[j]
		}
		n.inMean[j] = s / float64(len(X))
		var v float64
		for _, row := range X {
			dlt := row[j] - n.inMean[j]
			v += dlt * dlt
		}
		n.inStd[j] = math.Sqrt(v / float64(len(X)))
		if n.inStd[j] == 0 {
			n.inStd[j] = 1
		}
	}
	var mu float64
	for _, v := range y {
		mu += v
	}
	n.outMu = mu / float64(len(y))
	var sd float64
	for _, v := range y {
		sd += (v - n.outMu) * (v - n.outMu)
	}
	n.outSd = math.Sqrt(sd / float64(len(y)))
	if n.outSd == 0 {
		n.outSd = 1
	}
}

func (n *NN) norm(x []float64) []float64 {
	out := make([]float64, len(x))
	for j := range x {
		out[j] = (x[j] - n.inMean[j]) / n.inStd[j]
	}
	return out
}

// forward returns activations per layer (layer 0 = input).
func (n *NN) forward(x []float64) [][]float64 {
	acts := [][]float64{x}
	cur := x
	for l := 0; l < len(n.w); l++ {
		next := make([]float64, n.sizes[l+1])
		last := l == len(n.w)-1
		for j := range next {
			z := n.b[l][j]
			for k, wv := range n.w[l][j] {
				z += wv * cur[k]
			}
			if last {
				next[j] = z // linear output
			} else {
				next[j] = n.cfg.Activation.apply(z)
			}
		}
		acts = append(acts, next)
		cur = next
	}
	return acts
}

// Train fits the network on (X, y) with minibatch SGD and MSE loss.
func (n *NN) Train(X [][]float64, y []float64) error {
	if len(X) == 0 || len(X) != len(y) {
		return ErrBadInput
	}
	for _, row := range X {
		if len(row) != n.sizes[0] {
			return fmt.Errorf("predict: feature dim %d, want %d", len(row), n.sizes[0])
		}
	}
	n.fitNorm(X, y)
	Xn := make([][]float64, len(X))
	yn := make([]float64, len(y))
	for i := range X {
		Xn[i] = n.norm(X[i])
		yn[i] = (y[i] - n.outMu) / n.outSd
	}
	rng := rand.New(rand.NewSource(n.cfg.Seed + 7))
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < n.cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for s := 0; s < len(idx); s += n.cfg.BatchSize {
			e := s + n.cfg.BatchSize
			if e > len(idx) {
				e = len(idx)
			}
			n.step(Xn, yn, idx[s:e])
		}
	}
	return nil
}

// step applies one minibatch gradient update.
func (n *NN) step(X [][]float64, y []float64, batch []int) {
	L := len(n.w)
	// Accumulate gradients.
	gw := make([][][]float64, L)
	gb := make([][]float64, L)
	for l := 0; l < L; l++ {
		gw[l] = make([][]float64, n.sizes[l+1])
		for j := range gw[l] {
			gw[l][j] = make([]float64, n.sizes[l])
		}
		gb[l] = make([]float64, n.sizes[l+1])
	}
	for _, i := range batch {
		acts := n.forward(X[i])
		// Output delta (MSE, linear output).
		deltas := make([][]float64, L)
		out := acts[L][0]
		deltas[L-1] = []float64{out - y[i]}
		for l := L - 2; l >= 0; l-- {
			deltas[l] = make([]float64, n.sizes[l+1])
			for j := range deltas[l] {
				var s float64
				for k := range deltas[l+1] {
					s += n.w[l+1][k][j] * deltas[l+1][k]
				}
				deltas[l][j] = s * n.cfg.Activation.deriv(acts[l+1][j])
			}
		}
		for l := 0; l < L; l++ {
			for j := range gw[l] {
				for k := range gw[l][j] {
					gw[l][j][k] += deltas[l][j] * acts[l][k]
				}
				gb[l][j] += deltas[l][j]
			}
		}
	}
	lr := n.cfg.LearnRate / float64(len(batch))
	for l := 0; l < L; l++ {
		for j := range n.w[l] {
			for k := range n.w[l][j] {
				n.w[l][j][k] -= lr * gw[l][j][k]
			}
			n.b[l][j] -= lr * gb[l][j]
		}
	}
}

// Predict evaluates the network at x.
func (n *NN) Predict(x []float64) float64 {
	acts := n.forward(n.norm(x))
	return acts[len(acts)-1][0]*n.outSd + n.outMu
}

// MAE computes mean absolute error of a predictor over a dataset.
func MAE(pred func([]float64) float64, X [][]float64, y []float64) float64 {
	if len(X) == 0 {
		return 0
	}
	var s float64
	for i := range X {
		s += math.Abs(pred(X[i]) - y[i])
	}
	return s / float64(len(X))
}

// RMSE computes root-mean-square error of a predictor over a dataset.
func RMSE(pred func([]float64) float64, X [][]float64, y []float64) float64 {
	if len(X) == 0 {
		return 0
	}
	var s float64
	for i := range X {
		d := pred(X[i]) - y[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(X)))
}
