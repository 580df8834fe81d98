package textgen

import (
	"math"
	"testing"

	"fp8quant/internal/tensor"
)

// tableLM is a deterministic bigram LM for tests: next-token logits
// depend only on the last token.
type tableLM struct {
	vocab int
	table [][]float32
}

func newTableLM(vocab int, seed uint64) *tableLM {
	r := tensor.NewRNG(seed)
	t := make([][]float32, vocab)
	for i := range t {
		row := make([]float32, vocab)
		for j := range row {
			row[j] = float32(r.Norm())
		}
		t[i] = row
	}
	return &tableLM{vocab: vocab, table: t}
}

func (m *tableLM) Vocab() int { return m.vocab }
func (m *tableLM) NextLogits(tokens [][]int) *tensor.Tensor {
	out := tensor.New(len(tokens), m.vocab)
	for i, seq := range tokens {
		last := seq[len(seq)-1]
		copy(out.Data[i*m.vocab:], m.table[last])
	}
	return out
}

// greedy generates maxNew tokens with greedy decoding: the baseline
// beam search must never score below.
func greedy(m LM, prompt []int, maxNew int) []int {
	toks := append([]int(nil), prompt...)
	for step := 0; step < maxNew; step++ {
		logits := m.NextLogits([][]int{toks})
		best := 0
		for i, v := range logits.Data {
			if v > logits.Data[best] {
				best = i
			}
		}
		toks = append(toks, best)
	}
	return toks[len(prompt):]
}

func TestGreedyFollowsArgmax(t *testing.T) {
	m := newTableLM(8, 1)
	gen := greedy(m, []int{0}, 5)
	cur := 0
	for i, tok := range gen {
		best := 0
		for j, v := range m.table[cur] {
			if v > m.table[cur][best] {
				best = j
			}
		}
		if tok != best {
			t.Fatalf("step %d: got %d, want argmax %d", i, tok, best)
		}
		cur = tok
	}
}

func TestBeamSearchBeatsGreedyScore(t *testing.T) {
	m := newTableLM(12, 2)
	prompt := []int{3}
	greedy := greedy(m, prompt, 6)
	beam := BeamSearch(m, prompt, 4, 6)
	gs := seqScore(m, prompt, greedy)
	bs := seqScore(m, prompt, beam)
	if bs < gs-1e-9 {
		t.Errorf("beam score %v < greedy score %v", bs, gs)
	}
}

func seqScore(m LM, prompt, gen []int) float64 {
	toks := append([]int(nil), prompt...)
	score := 0.0
	for _, tok := range gen {
		lg := m.NextLogits([][]int{toks})
		lp := logSoftmax(lg.Data)
		score += lp[tok]
		toks = append(toks, tok)
	}
	return score
}

func TestBeamSearchDeterministic(t *testing.T) {
	m := newTableLM(10, 3)
	a := BeamSearch(m, []int{1, 2}, 3, 8)
	b := BeamSearch(m, []int{1, 2}, 3, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("beam search must be deterministic")
		}
	}
}

func TestRepetitionRate(t *testing.T) {
	// Perfectly repetitive sequence: rate near 1.
	rep := []int{1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3}
	if got := RepetitionRate(rep, 3); got < 0.5 {
		t.Errorf("repetitive rate = %v, want high", got)
	}
	// All-distinct sequence: rate 0.
	uniq := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if got := RepetitionRate(uniq, 3); got != 0 {
		t.Errorf("unique rate = %v, want 0", got)
	}
	if RepetitionRate([]int{1, 2}, 3) != 0 {
		t.Error("short sequence rate must be 0")
	}
}

func TestDistinctN(t *testing.T) {
	uniq := []int{1, 2, 3, 4, 5}
	if got := DistinctN(uniq, 2); got != 1 {
		t.Errorf("distinct-2 = %v, want 1", got)
	}
	rep := []int{1, 1, 1, 1, 1}
	if got := DistinctN(rep, 2); got != 0.25 {
		t.Errorf("constant distinct-2 = %v, want 0.25", got)
	}
}

func TestCompare(t *testing.T) {
	ref := []int{1, 2, 3, 4, 5}
	same := Compare(ref, ref)
	if same.FirstDivergence != 5 || same.MatchRate != 1 {
		t.Errorf("self compare: %+v", same)
	}
	div := Compare(ref, []int{1, 2, 9, 4, 5})
	if div.FirstDivergence != 2 {
		t.Errorf("first divergence = %d, want 2", div.FirstDivergence)
	}
	if math.Abs(div.MatchRate-0.8) > 1e-9 {
		t.Errorf("match rate = %v, want 0.8", div.MatchRate)
	}
}

func TestLogSoftmaxNormalizes(t *testing.T) {
	lp := logSoftmax([]float32{1, 2, 3, 1000})
	sum := 0.0
	for _, v := range lp {
		sum += math.Exp(v)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("softmax sum = %v", sum)
	}
}

func TestTopK(t *testing.T) {
	idx := topK([]float64{0.1, 0.9, 0.5, 0.7}, 2)
	if idx[0] != 1 || idx[1] != 3 {
		t.Errorf("topK = %v", idx)
	}
	if got := topK([]float64{1, 2}, 5); len(got) != 2 {
		t.Errorf("topK overshoot = %v", got)
	}
}

func TestNextTokenKL(t *testing.T) {
	m := newTableLM(8, 4)
	prompts := [][]int{{1}, {2}, {3}}
	if got := NextTokenKL(m, m, prompts); got > 1e-9 {
		t.Errorf("KL(self) = %v, want 0", got)
	}
	other := newTableLM(8, 5)
	if got := NextTokenKL(m, other, prompts); got <= 0 {
		t.Errorf("KL(different) = %v, want > 0", got)
	}
}
