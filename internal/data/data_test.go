package data

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"fp8quant/internal/tensor"
)

func TestImageDatasetDeterministic(t *testing.T) {
	d := &ImageDataset{N: 2, C: 3, H: 8, W: 8, NumBatches: 3, Seed: 1}
	a := d.Batch(1)
	b := d.Batch(1)
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("Batch(i) must be deterministic")
		}
	}
	c := d.Batch(2)
	same := true
	for i := range a.X.Data {
		if a.X.Data[i] != c.X.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different batch indices must differ")
	}
	if a.X.Shape[0] != 2 {
		t.Errorf("batch size = %d", a.X.Shape[0])
	}
}

// TestImageBatchAllocations checks that generating a batch allocates
// per image, not per pixel: the per-pixel Set must not heap-allocate
// its index.
func TestImageBatchAllocations(t *testing.T) {
	d := &ImageDataset{N: 16, C: 3, H: 12, W: 12, NumBatches: 2, Seed: 7}
	allocs := testing.AllocsPerRun(5, func() { d.Batch(1) })
	if limit := float64(d.N + 3); allocs > limit {
		t.Errorf("Batch allocates %.0f objects for %d images, want at most %.0f", allocs, d.N, limit)
	}
}

func TestImageDatasetSpatialStructure(t *testing.T) {
	// Neighbouring pixels must be correlated (blobs/gradients), unlike
	// white noise: check lag-1 autocorrelation is clearly positive.
	d := &ImageDataset{N: 4, C: 1, H: 16, W: 16, NumBatches: 1, Seed: 7}
	x := d.Batch(0).X
	var num, den float64
	mu := x.Mean()
	for n := 0; n < 4; n++ {
		for y := 0; y < 16; y++ {
			for xx := 0; xx+1 < 16; xx++ {
				a := float64(x.At(n, 0, y, xx)) - mu
				b := float64(x.At(n, 0, y, xx+1)) - mu
				num += a * b
				den += a * a
			}
		}
	}
	if num/den < 0.3 {
		t.Errorf("lag-1 autocorrelation = %v, want > 0.3", num/den)
	}
}

func TestTokenDatasetRange(t *testing.T) {
	d := &TokenDataset{N: 4, T: 16, Vocab: 50, NumBatches: 2, Seed: 3}
	s := d.Batch(0)
	if len(s.Tokens) != 4 || len(s.Tokens[0]) != 16 {
		t.Fatalf("token shape %dx%d", len(s.Tokens), len(s.Tokens[0]))
	}
	for _, seq := range s.Tokens {
		for _, id := range seq {
			if id < 0 || id >= 50 {
				t.Fatalf("token %d out of range", id)
			}
		}
	}
}

// TestTokenBatchOneSlab checks that a token batch's rows share one
// slab, each capped at its own length so an append cannot reach the
// next row, and the same for a tabular batch's bags.
func TestTokenBatchOneSlab(t *testing.T) {
	d := &TokenDataset{N: 8, T: 12, Vocab: 50, NumBatches: 2, Seed: 3}
	if allocs := testing.AllocsPerRun(5, func() { d.Batch(1) }); allocs > 3 {
		t.Errorf("token Batch allocates %.0f objects for %d rows, want at most 3", allocs, d.N)
	}
	toks := d.Batch(1).Tokens
	for n, row := range toks {
		if len(row) != d.T || cap(row) != d.T {
			t.Fatalf("row %d: len %d cap %d, want %d and %d", n, len(row), cap(row), d.T, d.T)
		}
	}
	next := toks[1][0]
	_ = append(toks[0], -1)
	if toks[1][0] != next {
		t.Error("an append to row 0 overwrote row 1")
	}
	tab := &TabularDataset{N: 8, DenseDim: 4, Vocab: 100, BagSize: 3, NumBatches: 1, Seed: 2}
	for n, bag := range tab.Batch(0).Bags {
		if cap(bag) != tab.BagSize {
			t.Fatalf("bag %d: cap %d, want %d", n, cap(bag), tab.BagSize)
		}
	}
}

func TestTokenZipfSkew(t *testing.T) {
	// Low ids must be much more frequent than high ids.
	d := &TokenDataset{N: 32, T: 32, Vocab: 100, NumBatches: 1, Seed: 9}
	counts := make([]int, 100)
	for _, seq := range d.Batch(0).Tokens {
		for _, id := range seq {
			counts[id]++
		}
	}
	lo, hi := 0, 0
	for i := 0; i < 10; i++ {
		lo += counts[i]
	}
	for i := 90; i < 100; i++ {
		hi += counts[i]
	}
	if lo <= hi*2 {
		t.Errorf("zipf skew too weak: first-decile=%d last-decile=%d", lo, hi)
	}
}

func TestTabularDataset(t *testing.T) {
	d := &TabularDataset{N: 8, DenseDim: 13, Vocab: 100, BagSize: 3, NumBatches: 1, Seed: 2}
	s := d.Batch(0)
	if s.X.Shape[1] != 13 || len(s.Bags) != 8 || len(s.Bags[0]) != 3 {
		t.Fatalf("tabular shapes wrong")
	}
}

func TestAudioDatasetBounded(t *testing.T) {
	d := &AudioDataset{N: 2, T: 64, NumBatches: 1, Seed: 4}
	x := d.Batch(0).X
	if x.Shape[0] != 2 || x.Shape[2] != 64 {
		t.Fatalf("audio shape %v", x.Shape)
	}
	if x.AbsMax() > 10 {
		t.Errorf("audio absmax %v too large", x.AbsMax())
	}
	// Must have signal, not all zeros.
	if x.Std() < 0.1 {
		t.Errorf("audio std %v too small", x.Std())
	}
}

func TestAugmentTrainingChangesData(t *testing.T) {
	d := &ImageDataset{N: 2, C: 1, H: 8, W: 8, NumBatches: 1, Seed: 5}
	x := d.Batch(0).X
	y := AugmentTraining(x, tensor.NewRNG(11))
	if x.Len() != y.Len() {
		t.Fatal("augment must preserve shape")
	}
	diff := 0
	for i := range x.Data {
		if x.Data[i] != y.Data[i] {
			diff++
		}
	}
	if diff < x.Len()/4 {
		t.Errorf("training augment changed only %d/%d values", diff, x.Len())
	}
}

func TestAugmentInferenceDeterministic(t *testing.T) {
	d := &ImageDataset{N: 2, C: 1, H: 8, W: 8, NumBatches: 1, Seed: 5}
	x := d.Batch(0).X
	y1 := AugmentInference(x, tensor.NewRNG(1))
	y2 := AugmentInference(x, tensor.NewRNG(999))
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatal("inference transform must ignore RNG")
		}
	}
	// Per-image mean ~0 after the transform.
	per := y1.Len() / 2
	for n := 0; n < 2; n++ {
		var mu float64
		for _, v := range y1.Data[n*per : (n+1)*per] {
			mu += float64(v)
		}
		if math.Abs(mu/float64(per)) > 1e-5 {
			t.Errorf("image %d mean = %v after inference transform", n, mu/float64(per))
		}
	}
}

func TestArgmaxAndAccuracy(t *testing.T) {
	if Argmax([]float32{0.1, 0.9, 0.5}) != 1 {
		t.Error("argmax wrong")
	}
	if Argmax([]float32{3, 9, 9}) != 1 {
		t.Error("argmax must keep the first of tied maxima")
	}
}

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if got := Pearson(a, a); math.Abs(got-1) > 1e-9 {
		t.Errorf("pearson self = %v", got)
	}
	b := []float64{4, 3, 2, 1}
	if got := Pearson(a, b); math.Abs(got+1) > 1e-9 {
		t.Errorf("pearson anti = %v", got)
	}
}

func TestFIDProperties(t *testing.T) {
	r := tensor.NewRNG(13)
	f1 := tensor.New(200, 8)
	f1.FillNormal(r, 0, 1)
	s1 := ComputeFIDStats(f1)
	if got := FID(s1, s1); got != 0 {
		t.Errorf("FID(X,X) = %v, want 0", got)
	}
	f2 := tensor.New(200, 8)
	f2.FillNormal(r, 1, 1) // shifted mean
	s2 := ComputeFIDStats(f2)
	d12 := FID(s1, s2)
	if d12 <= 0 {
		t.Errorf("FID of shifted distributions = %v, want > 0", d12)
	}
	// Symmetric.
	if math.Abs(d12-FID(s2, s1)) > 1e-9 {
		t.Error("FID must be symmetric")
	}
	// Bigger shift -> bigger FID.
	f3 := tensor.New(200, 8)
	f3.FillNormal(r, 3, 1)
	if FID(s1, ComputeFIDStats(f3)) <= d12 {
		t.Error("FID must grow with distribution shift")
	}
}

// Property: FID is non-negative for arbitrary stats.
func TestFIDNonNegative(t *testing.T) {
	prop := func(m1, m2, v1, v2 float64) bool {
		if math.IsNaN(m1) || math.IsNaN(m2) || math.IsNaN(v1) || math.IsNaN(v2) {
			return true
		}
		a := FIDStats{Mean: []float64{m1}, Var: []float64{math.Abs(v1)}}
		b := FIDStats{Mean: []float64{m2}, Var: []float64{math.Abs(v2)}}
		return FID(a, b) >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestRelativeLossAndPass(t *testing.T) {
	if got := RelativeLoss(0.8, 0.792); math.Abs(got-0.01) > 1e-9 {
		t.Errorf("relative loss = %v", got)
	}
	if !Passes(0.8, 0.792) {
		t.Error("exactly 1% loss should pass")
	}
	if Passes(0.8, 0.79) {
		t.Error("1.25% loss should fail")
	}
	if !Passes(0.8, 0.85) {
		t.Error("accuracy gain should pass")
	}
}

// sampleDigest is a short sha256 of a sample's shapes and values.
func sampleDigest(s Sample) string {
	h := sha256.New()
	var b [8]byte
	if s.X != nil {
		for _, d := range s.X.Shape {
			binary.LittleEndian.PutUint64(b[:], uint64(d))
			h.Write(b[:])
		}
		for _, v := range s.X.Data {
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(v))
			h.Write(b[:4])
		}
	}
	for _, ids := range [][][]int{s.Tokens, s.Bags} {
		binary.LittleEndian.PutUint64(b[:], uint64(len(ids)))
		h.Write(b[:])
		for _, row := range ids {
			binary.LittleEndian.PutUint64(b[:], uint64(len(row)))
			h.Write(b[:])
			for _, id := range row {
				binary.LittleEndian.PutUint64(b[:], uint64(id))
				h.Write(b[:])
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestBatchIntoReusesSample holds every generator's BatchInto to its
// Batch: batch 9 generated into a Sample that held batch 2 has Batch(9)'s
// bytes, which are those the generators produced before BatchInto
// existed (the pinned digests), and streaming into a warm Sample
// allocates nothing, except through an augmenting Transform.
func TestBatchIntoReusesSample(t *testing.T) {
	cases := []struct {
		d      Dataset
		digest string
		allocs bool
	}{
		{&ImageDataset{N: 4, C: 3, H: 12, W: 12, NumBatches: 2, Seed: 7}, "96499ed3f7a322a9", false},
		{&ImageDataset{N: 4, C: 3, H: 12, W: 12, NumBatches: 2, Seed: 7, Transform: AugmentTraining}, "2c9e339e40cdee8c", true},
		{&ImageDataset{N: 4, C: 3, H: 12, W: 12, NumBatches: 2, Seed: 7, Transform: AugmentInference}, "9e3ba5740f262aeb", true},
		{&TokenDataset{N: 4, T: 12, Vocab: 128, NumBatches: 2, Seed: 3}, "fdac07379506ff91", false},
		{&TabularDataset{N: 4, DenseDim: 13, Vocab: 100, BagSize: 3, NumBatches: 2, Seed: 2}, "3b32fcb762d7ac61", false},
		{&AudioDataset{N: 4, T: 256, NumBatches: 2, Seed: 4}, "ccc13a924b991705", false},
	}
	for _, c := range cases {
		want := c.d.Batch(9)
		if got := sampleDigest(want); got != c.digest {
			t.Errorf("%T: Batch(9) digest %s, want %s", c.d, got, c.digest)
		}
		var s Sample
		c.d.BatchInto(2, &s)
		x, toks := s.X, s.Tokens
		c.d.BatchInto(9, &s)
		if sampleDigest(s) != sampleDigest(want) || (s.X == nil) != (want.X == nil) {
			t.Errorf("%T: BatchInto(9) into a reused Sample differs from Batch(9)", c.d)
		}
		if s.X != x || len(toks) > 0 && &s.Tokens[0][0] != &toks[0][0] {
			t.Errorf("%T: BatchInto replaced the Sample's storage", c.d)
		}
		if c.allocs {
			continue
		}
		if n := testing.AllocsPerRun(5, func() { c.d.BatchInto(3, &s) }); n != 0 {
			t.Errorf("%T: BatchInto into a warm Sample allocates %.0f objects, want 0", c.d, n)
		}
	}
}

// TestSampleAlikeCopySample packs chosen samples of a batch into a
// Sample made by Alike, per modality.
func TestSampleAlikeCopySample(t *testing.T) {
	for _, d := range []Dataset{
		&ImageDataset{N: 4, C: 2, H: 3, W: 3, NumBatches: 1, Seed: 1},
		&TokenDataset{N: 4, T: 5, Vocab: 16, NumBatches: 1, Seed: 1},
		&TabularDataset{N: 4, DenseDim: 3, Vocab: 16, BagSize: 2, NumBatches: 1, Seed: 1},
	} {
		src := d.Batch(0)
		dst := src.Alike(2)
		if dst.Len() != 2 {
			t.Fatalf("%T: Alike(2) holds %d samples", d, dst.Len())
		}
		dst.CopySample(0, src, 3)
		dst.CopySample(1, src, 1)
		for k, j := range []int{3, 1} {
			if src.X != nil {
				per := len(src.X.Data) / src.Len()
				if !slices.Equal(dst.X.Data[k*per:(k+1)*per], src.X.Data[j*per:(j+1)*per]) {
					t.Errorf("%T: packed sample %d is not sample %d", d, k, j)
				}
			}
			if src.Tokens != nil && !slices.Equal(dst.Tokens[k], src.Tokens[j]) ||
				src.Bags != nil && !slices.Equal(dst.Bags[k], src.Bags[j]) {
				t.Errorf("%T: packed ids %d are not sample %d's", d, k, j)
			}
		}
	}
}
