package nnet

import (
	"math"
	"runtime"
	"sync"

	"adiv/internal/rng"
)

// velFloor flushes momentum velocities to exact zero before they reach the
// subnormal float range. When an example's gradient vanishes (the network
// has learned it), its velocities decay geometrically — ×momentum per step —
// toward zero and, left alone, spend thousands of steps as subnormal
// numbers; on common x86 cores every multiply on a subnormal operand takes a
// microcode assist costing ~100 cycles, which profiling showed dominating
// the whole training run. Flushing below 1e-300 removes the penalty without
// changing the trained network: adding a magnitude-≤1e-300 velocity to a
// normal-scale weight is a bitwise no-op (far below the weight's ulp), and
// the reference-equivalence test pins the bit-identity end to end.
const velFloor = 1e-300

// network is a feed-forward net over one-hot encoded symbol windows with a
// softmax readout and one or two tanh hidden layers. Because the input is a
// concatenation of one-hot blocks, the first-layer matvec reduces to
// summing one weight column per window position; no dense input vector is
// ever materialized.
//
// All weight matrices are flat []float64. The first layer is stored
// column-major — w1[i*hidden+j] connects one-hot input i = pos*k+sym to
// hidden unit j — so the column gather in forward and the sparse update in
// apply both walk contiguous memory. The middle and output layers are
// row-major (wm[m*hidden+j], w2[o*top+t]), matching their dense access.
//
// Determinism contract: newNetwork consumes the seeded PCG stream in the
// exact order of the legacy row-major implementation, and every
// floating-point accumulation in forward/backprop/apply preserves the
// legacy per-accumulator operand order, so trained weights are bit-for-bit
// identical to the reference (see reference_test.go).
type network struct {
	window  int // context length DW
	k       int // alphabet size
	hidden  int
	hidden2 int // 0 = single hidden layer

	w1, v1  []float64 // first layer, column-major
	b1, vb1 []float64
	wm, vm  []float64 // optional middle layer, row-major
	bm, vbm []float64
	w2, v2  []float64 // output layer, row-major
	b2, vb2 []float64

	// Scratch owned by training (step for per-example SGD, sg for apply).
	// Training is therefore not safe for concurrent use except through the
	// explicit gradient fan-out in trainSGD, where every worker gets a
	// private grad slot and scratch and the weights are read-only for the
	// duration of the fan-out. Scoring never touches this scratch: each
	// window kernel owns its activations (nnet.go).
	g0 grad
	s0 scratch
	sg []float64 // apply: per-hidden-unit step*delta, len hidden
}

// grad holds one example's backpropagated gradient signals plus the
// activations its weight update needs. Slots are written by exactly one
// backprop call and read by exactly one apply call.
type grad struct {
	h, h2   []float64 // tanh activations per hidden layer
	dout    []float64 // output delta: softmax minus one-hot target
	dh, dh2 []float64 // hidden deltas through the tanh derivative
	loss    float64   // weighted cross-entropy at the pre-update weights
}

// scratch is per-worker temporary storage for backprop: the softmax buffer
// and the shared accumulation buffer for the delta back-propagation.
type scratch struct {
	probs []float64
	acc   []float64 // len max(hidden, top)
}

// top returns the size of the hidden layer feeding the output.
func (n *network) top() int {
	if n.hidden2 > 0 {
		return n.hidden2
	}
	return n.hidden
}

func newNetwork(window, k, hidden, hidden2 int, src *rng.Source) *network {
	n := &network{window: window, k: k, hidden: hidden, hidden2: hidden2}
	inputs := window * k
	inScale := 1 / math.Sqrt(float64(window)) // each pattern activates DW inputs
	// The legacy layout filled w1 row-major (hidden rows × inputs cols); the
	// column-major array must consume the PCG stream in that same (j, i)
	// order to initialize bit-identically.
	n.w1 = make([]float64, inputs*hidden)
	for j := 0; j < hidden; j++ {
		for i := 0; i < inputs; i++ {
			n.w1[i*hidden+j] = (src.Float64()*2 - 1) * inScale
		}
	}
	n.v1 = make([]float64, inputs*hidden)
	n.b1 = make([]float64, hidden)
	n.vb1 = make([]float64, hidden)
	if hidden2 > 0 {
		mScale := 1 / math.Sqrt(float64(hidden))
		n.wm = randomFlat(src, hidden2*hidden, mScale)
		n.vm = make([]float64, hidden2*hidden)
		n.bm = make([]float64, hidden2)
		n.vbm = make([]float64, hidden2)
	}
	top := n.top()
	tScale := 1 / math.Sqrt(float64(top))
	n.w2 = randomFlat(src, k*top, tScale)
	n.v2 = make([]float64, k*top)
	n.b2 = make([]float64, k)
	n.vb2 = make([]float64, k)
	n.g0 = n.newGrad()
	n.s0 = n.newScratch()
	n.sg = make([]float64, hidden)
	return n
}

// randomFlat fills a flat row-major matrix; linear fill order equals the
// legacy row-then-column fill, so the PCG stream is consumed identically.
func randomFlat(src *rng.Source, size int, scale float64) []float64 {
	m := make([]float64, size)
	for i := range m {
		m[i] = (src.Float64()*2 - 1) * scale
	}
	return m
}

func (n *network) newGrad() grad {
	g := grad{
		h:    make([]float64, n.hidden),
		dh:   make([]float64, n.hidden),
		dout: make([]float64, n.k),
	}
	if n.hidden2 > 0 {
		g.h2 = make([]float64, n.hidden2)
		g.dh2 = make([]float64, n.hidden2)
	}
	return g
}

func (n *network) newScratch() scratch {
	accLen := n.hidden
	if t := n.top(); t > accLen {
		accLen = t
	}
	return scratch{probs: make([]float64, n.k), acc: make([]float64, accLen)}
}

// forwardInto runs the context (byte-encoded window) through the network,
// writing activations and the softmax output distribution into
// caller-provided buffers, so gradient workers and window kernels run
// concurrently against the shared (read-only) weights. Every context
// symbol must be below n.k: the first layer has weights for no other.
func (n *network) forwardInto(context []byte, h, h2, probs []float64) {
	hidden := n.hidden
	// First layer: gather one contiguous weight column per window position.
	// Per hidden unit the addition order is bias first, then positions in
	// ascending order — the legacy accumulation order. The explicit
	// equal-length reslices let the compiler drop the bounds checks from
	// the gather loop.
	h = h[:hidden]
	copy(h, n.b1)
	for pos, sym := range context {
		off := (pos*n.k + int(sym)) * hidden
		col := n.w1[off : off+hidden]
		for j, w := range col {
			h[j] += w
		}
	}
	for j, a := range h {
		h[j] = math.Tanh(a)
	}
	topAct := h
	if n.hidden2 > 0 {
		for m := 0; m < n.hidden2; m++ {
			a := n.bm[m]
			row := n.wm[m*hidden : m*hidden+hidden]
			for j, w := range row {
				a += w * h[j]
			}
			h2[m] = math.Tanh(a)
		}
		topAct = h2
	}
	topN := len(topAct)
	maxLogit := math.Inf(-1)
	for o := 0; o < n.k; o++ {
		a := n.b2[o]
		row := n.w2[o*topN:][:topN]
		for t, w := range row {
			a += w * topAct[t]
		}
		probs[o] = a
		if a > maxLogit {
			maxLogit = a
		}
	}
	sum := 0.0
	for o := 0; o < n.k; o++ {
		probs[o] = math.Exp(probs[o] - maxLogit)
		sum += probs[o]
	}
	for o := 0; o < n.k; o++ {
		probs[o] /= sum
	}
}

// backprop computes one example's weighted loss and gradient signals at the
// current weights, writing into g. It does not touch the weights, so any
// number of backprop calls with distinct g and s may run concurrently.
func (n *network) backprop(context []byte, target int, weight float64, g *grad, s *scratch) {
	n.forwardInto(context, g.h, g.h2, s.probs)
	g.loss = weight * crossEntropy(s.probs[target])

	// Softmax + cross-entropy gradient at the output. Like the velocity
	// flush, gradient signals are flushed to zero below velFloor: on a
	// converged example the non-target softmax tails underflow toward the
	// subnormal range and would otherwise drag every downstream multiply
	// through microcode assists. A ≤1e-300 gradient moves no weight (its
	// largest possible update is far below any weight's ulp).
	for o := 0; o < n.k; o++ {
		d := s.probs[o]
		if d < velFloor {
			d = 0
		}
		g.dout[o] = d
	}
	g.dout[target] -= 1

	topAct, topDelta := g.h, g.dh
	if n.hidden2 > 0 {
		topAct, topDelta = g.h2, g.dh2
	}

	// Top hidden deltas through the tanh derivative. The legacy code walked
	// a w2 column per t; accumulating o-outer into a zeroed buffer performs
	// the same per-t addition sequence (o ascending) over contiguous rows.
	topN := len(topAct)
	acc := s.acc[:topN]
	for t := range acc {
		acc[t] = 0
	}
	for o := 0; o < n.k; o++ {
		d := g.dout[o]
		row := n.w2[o*topN:][:topN]
		for t, w := range row {
			acc[t] += w * d
		}
	}
	for t, a := range acc {
		d := a * (1 - topAct[t]*topAct[t])
		if math.Abs(d) < velFloor {
			d = 0
		}
		topDelta[t] = d
	}
	// With a middle layer, propagate further down to the first hidden.
	if n.hidden2 > 0 {
		hidden := n.hidden
		acc := s.acc[:hidden]
		for j := range acc {
			acc[j] = 0
		}
		for m := 0; m < n.hidden2; m++ {
			d := g.dh2[m]
			row := n.wm[m*hidden:][:hidden]
			for j, w := range row {
				acc[j] += w * d
			}
		}
		for j, a := range acc {
			d := a * (1 - g.h[j]*g.h[j])
			if math.Abs(d) < velFloor {
				d = 0
			}
			g.dh[j] = d
		}
	}
}

// apply performs the SGD-with-momentum weight update for one example's
// gradient, with step = learning rate × example weight. Updates mutate the
// weights and must run serially, in fixed example order for determinism.
func (n *network) apply(context []byte, g *grad, step, momentum float64) {
	topAct := g.h
	if n.hidden2 > 0 {
		topAct = g.h2
	}
	topN := len(topAct)

	// Output-layer update against the top activations.
	for o := 0; o < n.k; o++ {
		sg := step * g.dout[o]
		row := n.w2[o*topN:][:topN]
		vel := n.v2[o*topN:][:topN]
		for t, a := range topAct {
			v := momentum*vel[t] - sg*a
			if math.Abs(v) < velFloor {
				v = 0
			}
			vel[t] = v
			row[t] += v
		}
		v := momentum*n.vb2[o] - sg
		if math.Abs(v) < velFloor {
			v = 0
		}
		n.vb2[o] = v
		n.b2[o] += v
	}

	// Middle-layer update.
	if n.hidden2 > 0 {
		hidden := n.hidden
		for m := 0; m < n.hidden2; m++ {
			sg := step * g.dh2[m]
			row := n.wm[m*hidden:][:hidden]
			vel := n.vm[m*hidden:][:hidden]
			for j, a := range g.h {
				v := momentum*vel[j] - sg*a
				if math.Abs(v) < velFloor {
					v = 0
				}
				vel[j] = v
				row[j] += v
			}
			v := momentum*n.vbm[m] - sg
			if math.Abs(v) < velFloor {
				v = 0
			}
			n.vbm[m] = v
			n.bm[m] += v
		}
	}

	// First-layer update: only the DW active inputs have nonzero gradient,
	// and each is a contiguous column. Every (input, hidden) weight is
	// touched exactly once (window positions map to distinct one-hot
	// inputs), so the pos-outer walk updates the same weights with the same
	// arithmetic as the legacy j-outer walk.
	hidden := n.hidden
	sg := n.sg[:hidden]
	for j, d := range g.dh[:hidden] {
		sg[j] = step * d
	}
	for pos, sym := range context {
		off := (pos*n.k + int(sym)) * hidden
		wcol := n.w1[off:][:hidden]
		vcol := n.v1[off:][:hidden]
		for j, s := range sg {
			v := momentum*vcol[j] - s
			if math.Abs(v) < velFloor {
				v = 0
			}
			vcol[j] = v
			wcol[j] += v
		}
	}
	for j, s := range sg {
		v := momentum*n.vb1[j] - s
		if math.Abs(v) < velFloor {
			v = 0
		}
		n.vb1[j] = v
		n.b1[j] += v
	}
}

// step performs one weighted SGD-with-momentum update on the cross-entropy
// loss for a single (context, target) example and returns the example's
// weighted loss before the update.
func (n *network) step(context []byte, target int, weight, lr, momentum float64) float64 {
	n.backprop(context, target, weight, &n.g0, &n.s0)
	n.apply(context, &n.g0, lr*weight, momentum)
	return n.g0.loss
}

// exampleSet is the flat training-example storage fit prepares: contexts
// are concatenated into one byte buffer, parallel arrays hold the target
// symbol and SGD weight per example.
type exampleSet struct {
	window  int
	ctx     []byte // len = count*window
	targets []uint8
	weights []float64
}

func (e *exampleSet) count() int { return len(e.targets) }

func (e *exampleSet) context(i int) []byte {
	return e.ctx[i*e.window : (i+1)*e.window]
}

// trainSGD runs the epoch loop over the prepared example set.
//
// With BatchSize ≤ 1 this is exact per-example SGD in seeded shuffle order —
// the reference semantics, bit-identical to the legacy implementation. With
// BatchSize > 1 each batch's per-example gradients are computed at the
// batch-start weights (fanned across Workers goroutines) and applied with
// momentum in fixed index order, so the trained weights are a pure function
// of (data, config) and bit-identical for every worker count.
func (n *network) trainSGD(ex *exampleSet, cfg Config) {
	lr, momentum := cfg.LearningRate, cfg.Momentum
	src := rng.New(cfg.Seed ^ 0xA5A5A5A5A5A5A5A5)
	order := make([]int, ex.count())
	for i := range order {
		order[i] = i
	}

	batch := cfg.BatchSize
	if batch < 1 {
		batch = 1
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > batch {
		workers = batch
	}
	var slots []grad
	var scratches []scratch
	if batch > 1 {
		slots = make([]grad, batch)
		for i := range slots {
			slots[i] = n.newGrad()
		}
		scratches = make([]scratch, workers)
		for i := range scratches {
			scratches[i] = n.newScratch()
		}
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0
		if batch == 1 {
			for _, idx := range order {
				epochLoss += n.step(ex.context(idx), int(ex.targets[idx]), ex.weights[idx], lr, momentum)
			}
		} else {
			for start := 0; start < len(order); start += batch {
				end := start + batch
				if end > len(order) {
					end = len(order)
				}
				chunk := order[start:end]
				n.gradients(ex, chunk, slots, scratches, workers)
				for i, idx := range chunk {
					n.apply(ex.context(idx), &slots[i], lr*ex.weights[idx], momentum)
					epochLoss += slots[i].loss
				}
			}
		}
		if cfg.TargetLoss > 0 && epochLoss/float64(len(order)) < cfg.TargetLoss {
			break
		}
	}
}

// gradients computes the chunk's per-example gradients at the current
// weights. Slot i always receives example chunk[i] regardless of the worker
// count, which is what makes the subsequent fixed-order apply loop
// worker-count-independent.
func (n *network) gradients(ex *exampleSet, chunk []int, slots []grad, scratches []scratch, workers int) {
	if workers <= 1 || len(chunk) == 1 {
		s := &scratches[0]
		for i, idx := range chunk {
			n.backprop(ex.context(idx), int(ex.targets[idx]), ex.weights[idx], &slots[i], s)
		}
		return
	}
	if workers > len(chunk) {
		workers = len(chunk)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := &scratches[w]
			for i := w; i < len(chunk); i += workers {
				idx := chunk[i]
				n.backprop(ex.context(idx), int(ex.targets[idx]), ex.weights[idx], &slots[i], s)
			}
		}(w)
	}
	wg.Wait()
}

// crossEntropy returns -log(p) with a floor that keeps the loss finite
// when the softmax underflows.
func crossEntropy(p float64) float64 {
	const floor = 1e-300
	if p < floor {
		p = floor
	}
	return -math.Log(p)
}
