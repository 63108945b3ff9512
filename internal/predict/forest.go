package predict

import (
	"math"
	"math/rand"
	"sort"
)

// TreeConfig configures CART regression trees.
type TreeConfig struct {
	MaxDepth    int
	MinLeafSize int
	// FeatureSubset, when > 0, limits each split to a random subset of
	// features (used by random forests).
	FeatureSubset int
}

// DefaultTreeConfig returns depth-12 trees with 2-sample leaves.
func DefaultTreeConfig() TreeConfig {
	return TreeConfig{MaxDepth: 12, MinLeafSize: 2}
}

// treeNode is one node of a regression tree.
type treeNode struct {
	feature int
	thresh  float64
	left    *treeNode
	right   *treeNode
	value   float64 // leaf prediction
	leaf    bool
}

// Tree is a CART regression tree.
type Tree struct {
	cfg  TreeConfig
	root *treeNode
}

func meanAt(y []float64, idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func sseAt(y []float64, idx []int) float64 {
	m := meanAt(y, idx)
	var s float64
	for _, i := range idx {
		d := y[i] - m
		s += d * d
	}
	return s
}

// build recursively grows the tree. rng selects feature subsets (nil = all
// features, for plain CART).
func (t *Tree) build(X [][]float64, y []float64, idx []int, depth int, rng *rand.Rand) *treeNode {
	if depth >= t.cfg.MaxDepth || len(idx) <= t.cfg.MinLeafSize {
		return &treeNode{leaf: true, value: meanAt(y, idx)}
	}
	nf := len(X[0])
	features := make([]int, nf)
	for i := range features {
		features[i] = i
	}
	if rng != nil && t.cfg.FeatureSubset > 0 && t.cfg.FeatureSubset < nf {
		rng.Shuffle(nf, func(a, b int) { features[a], features[b] = features[b], features[a] })
		features = features[:t.cfg.FeatureSubset]
	}

	baseSSE := sseAt(y, idx)
	if baseSSE == 0 {
		return &treeNode{leaf: true, value: meanAt(y, idx)}
	}
	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0
	sortedIdx := make([]int, len(idx))
	for _, f := range features {
		copy(sortedIdx, idx)
		sort.Slice(sortedIdx, func(a, b int) bool { return X[sortedIdx[a]][f] < X[sortedIdx[b]][f] })
		// Incremental SSE scan over split positions.
		var lSum, lSq float64
		var rSum, rSq float64
		for _, i := range sortedIdx {
			rSum += y[i]
			rSq += y[i] * y[i]
		}
		nL := 0
		nR := len(sortedIdx)
		for k := 0; k < len(sortedIdx)-1; k++ {
			i := sortedIdx[k]
			lSum += y[i]
			lSq += y[i] * y[i]
			rSum -= y[i]
			rSq -= y[i] * y[i]
			nL++
			nR--
			if X[sortedIdx[k]][f] == X[sortedIdx[k+1]][f] {
				continue // can't split between equal values
			}
			if nL < t.cfg.MinLeafSize || nR < t.cfg.MinLeafSize {
				continue
			}
			sse := (lSq - lSum*lSum/float64(nL)) + (rSq - rSum*rSum/float64(nR))
			if gain := baseSSE - sse; gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (X[sortedIdx[k]][f] + X[sortedIdx[k+1]][f]) / 2
			}
		}
	}
	if bestFeat < 0 {
		return &treeNode{leaf: true, value: meanAt(y, idx)}
	}
	var li, ri []int
	for _, i := range idx {
		if X[i][bestFeat] <= bestThresh {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return &treeNode{leaf: true, value: meanAt(y, idx)}
	}
	return &treeNode{
		feature: bestFeat,
		thresh:  bestThresh,
		left:    t.build(X, y, li, depth+1, rng),
		right:   t.build(X, y, ri, depth+1, rng),
	}
}

// Predict evaluates the tree at x.
func (t *Tree) Predict(x []float64) float64 {
	n := t.root
	for !n.leaf {
		if x[n.feature] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// ForestConfig configures a random forest.
type ForestConfig struct {
	Trees int
	Tree  TreeConfig
	Seed  int64
}

// DefaultForestConfig returns a 50-tree forest with sqrt-feature splits.
func DefaultForestConfig() ForestConfig {
	return ForestConfig{Trees: 50, Tree: DefaultTreeConfig(), Seed: 1}
}

// Forest is a bagged random-forest regressor.
type Forest struct {
	trees []*Tree
}

// TrainForest fits a random forest with bootstrap sampling and per-split
// random feature subsets.
func TrainForest(X [][]float64, y []float64, cfg ForestConfig) (*Forest, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, ErrBadInput
	}
	if cfg.Trees <= 0 {
		cfg.Trees = 50
	}
	tcfg := cfg.Tree
	if tcfg.MaxDepth <= 0 {
		tcfg = DefaultTreeConfig()
	}
	if tcfg.FeatureSubset <= 0 {
		tcfg.FeatureSubset = int(math.Ceil(math.Sqrt(float64(len(X[0])))))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Forest{}
	n := len(X)
	for t := 0; t < cfg.Trees; t++ {
		// Bootstrap sample.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		tr := &Tree{cfg: tcfg}
		tr.root = tr.build(X, y, idx, 0, rng)
		f.trees = append(f.trees, tr)
	}
	return f, nil
}

// Predict averages the trees' predictions at x.
func (f *Forest) Predict(x []float64) float64 {
	var s float64
	for _, t := range f.trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.trees))
}

// KNN is a k-nearest-neighbor regression baseline.
type KNN struct {
	k int
	X [][]float64
	y []float64
}

// NewKNN builds a kNN regressor over the training set.
func NewKNN(k int, X [][]float64, y []float64) (*KNN, error) {
	if len(X) == 0 || len(X) != len(y) || k <= 0 {
		return nil, ErrBadInput
	}
	return &KNN{k: k, X: X, y: y}, nil
}

// Predict averages the k nearest neighbors' targets (Euclidean distance).
func (m *KNN) Predict(x []float64) float64 {
	type cand struct {
		d float64
		y float64
	}
	cands := make([]cand, len(m.X))
	for i, row := range m.X {
		var d float64
		for j := range row {
			diff := row[j] - x[j]
			d += diff * diff
		}
		cands[i] = cand{d, m.y[i]}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
	k := m.k
	if k > len(cands) {
		k = len(cands)
	}
	var s float64
	for i := 0; i < k; i++ {
		s += cands[i].y
	}
	return s / float64(k)
}
