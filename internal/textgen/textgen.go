// Package textgen implements beam-search text generation and the
// degeneration metrics used to reproduce Table 4 / Appendix A.3: the
// paper's qualitative finding is that INT8 Bloom output collapses into
// n-gram repetition ("She saw many strange ...") while E3M4 stays close
// to the FP32 continuation; here that is quantified as first-divergence
// position, repeated-n-gram rate, distinct-n, and next-token KL against
// the FP32 reference on the same beam-search code path.
package textgen

import (
	"math"

	"fp8quant/internal/tensor"
)

// LM is the next-token interface generation needs: token sequences in,
// next-token logits (final position) out.
type LM interface {
	// NextLogits returns [B, V] logits for the next token of each
	// sequence in the batch.
	NextLogits(tokens [][]int) *tensor.Tensor
	// Vocab returns the vocabulary size.
	Vocab() int
}

// beam is one beam-search hypothesis.
type beam struct {
	toks  []int
	score float64
}

// sortBeams orders hypotheses by (score desc, tokens asc) in place.
func sortBeams(b []beam) {
	// Insertion sort — beams are few.
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && betterBeam(b[j], b[j-1]); j-- {
			b[j], b[j-1] = b[j-1], b[j]
		}
	}
}

func betterBeam(a, b beam) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	for k := range a.toks {
		if k >= len(b.toks) {
			return false
		}
		if a.toks[k] != b.toks[k] {
			return a.toks[k] < b.toks[k]
		}
	}
	return false
}

// BeamSearch generates maxNew tokens continuing prompt with the given
// beam width, returning the best-scoring sequence (prompt excluded).
// Scores are sum of log-probabilities. Deterministic: ties break toward
// the lower token id.
func BeamSearch(m LM, prompt []int, beamWidth, maxNew int) []int {
	beams := []beam{{toks: append([]int(nil), prompt...), score: 0}}
	for step := 0; step < maxNew; step++ {
		// Batch all beams through the model at once.
		batch := make([][]int, len(beams))
		for i, b := range beams {
			batch[i] = b.toks
		}
		logits := m.NextLogits(batch)
		v := m.Vocab()
		var cands []beam
		for i, b := range beams {
			row := logits.Data[i*v : (i+1)*v]
			logp := logSoftmax(row)
			// Expand only the top beamWidth tokens of each beam.
			for _, tok := range topK(logp, beamWidth) {
				toks := append(append([]int(nil), b.toks...), tok)
				cands = append(cands, beam{toks: toks, score: b.score + logp[tok]})
			}
		}
		// Keep the best beamWidth candidates.
		sortBeams(cands)
		if len(cands) > beamWidth {
			cands = cands[:beamWidth]
		}
		beams = cands
	}
	best := beams[0]
	return best.toks[len(prompt):]
}

// logSoftmax returns log-probabilities of a logit row.
func logSoftmax(row []float32) []float64 {
	maxV := row[0]
	for _, v := range row {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for _, v := range row {
		sum += math.Exp(float64(v - maxV))
	}
	lse := math.Log(sum) + float64(maxV)
	out := make([]float64, len(row))
	for i, v := range row {
		out[i] = float64(v) - lse
	}
	return out
}

// topK returns the indices of the k largest values, descending.
func topK(v []float64, k int) []int {
	if k > len(v) {
		k = len(v)
	}
	idx := make([]int, 0, k)
	used := make(map[int]bool, k)
	for n := 0; n < k; n++ {
		best := -1
		for i, x := range v {
			if used[i] {
				continue
			}
			if best < 0 || x > v[best] {
				best = i
			}
		}
		idx = append(idx, best)
		used[best] = true
	}
	return idx
}

// Metrics quantify generation quality against an FP32 reference.
type Metrics struct {
	// FirstDivergence is the index of the first token differing from
	// the reference (len if identical).
	FirstDivergence int
	// MatchRate is the fraction of positions agreeing with the
	// reference.
	MatchRate float64
	// RepetitionRate is the fraction of 3-grams that repeat an
	// earlier 3-gram in the same sequence (Table 4's "saw many
	// strange" degeneracy).
	RepetitionRate float64
	// DistinctN is the ratio of unique 2-grams to total 2-grams.
	DistinctN float64
}

// Compare computes generation metrics of a sequence against the FP32
// reference sequence.
func Compare(ref, gen []int) Metrics {
	m := Metrics{FirstDivergence: len(gen)}
	match := 0
	for i := range gen {
		if i < len(ref) && gen[i] == ref[i] {
			match++
		} else if m.FirstDivergence == len(gen) {
			m.FirstDivergence = i
		}
	}
	if len(gen) > 0 {
		m.MatchRate = float64(match) / float64(len(gen))
	}
	m.RepetitionRate = RepetitionRate(gen, 3)
	m.DistinctN = DistinctN(gen, 2)
	return m
}

// RepetitionRate returns the fraction of n-grams that already occurred
// earlier in the sequence.
func RepetitionRate(seq []int, n int) float64 {
	if len(seq) < n+1 {
		return 0
	}
	seen := make(map[string]bool)
	repeats, total := 0, 0
	for i := 0; i+n <= len(seq); i++ {
		key := gramKey(seq[i : i+n])
		if seen[key] {
			repeats++
		}
		seen[key] = true
		total++
	}
	return float64(repeats) / float64(total)
}

// DistinctN returns unique-n-gram ratio (higher = more diverse).
func DistinctN(seq []int, n int) float64 {
	if len(seq) < n {
		return 0
	}
	seen := make(map[string]bool)
	total := 0
	for i := 0; i+n <= len(seq); i++ {
		seen[gramKey(seq[i:i+n])] = true
		total++
	}
	return float64(len(seen)) / float64(total)
}

func gramKey(g []int) string {
	b := make([]byte, 0, len(g)*3)
	for _, t := range g {
		b = append(b, byte(t), byte(t>>8), '|')
	}
	return string(b)
}

// NextTokenKL returns the mean KL divergence between reference and
// quantized next-token distributions over a set of prompts.
//
//fp8vet:ignore unused the root package's Table 4 integration test scores quantized generators with it
func NextTokenKL(ref, quant LM, prompts [][]int) float64 {
	lr := ref.NextLogits(prompts)
	lq := quant.NextLogits(prompts)
	v := ref.Vocab()
	total := 0.0
	for i := range prompts {
		p := probs(lr.Data[i*v : (i+1)*v])
		q := probs(lq.Data[i*v : (i+1)*v])
		total += tensor.KLDivergence(p, q)
	}
	return total / float64(len(prompts))
}

func probs(row []float32) []float64 {
	lp := logSoftmax(row)
	out := make([]float64, len(lp))
	for i, v := range lp {
		out[i] = math.Exp(v)
	}
	return out
}
