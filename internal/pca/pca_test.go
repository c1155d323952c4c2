package pca

import (
	"math"
	"math/rand"
	"testing"

	"tunio/internal/mat"
)

func TestFitValidation(t *testing.T) {
	if _, err := Fit(mat.New(1, 3)); err == nil {
		t.Fatal("1 observation: want error")
	}
	if _, err := Fit(mat.New(5, 0)); err == nil {
		t.Fatal("0 features: want error")
	}
}

func TestFitKnownAxis(t *testing.T) {
	// Points along the line y = 2x: first component must align with
	// (1,1)/sqrt2 in standardized space (both features perfectly correlated).
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, 200)
	for i := range rows {
		x := rng.NormFloat64()
		rows[i] = []float64{x, 2 * x}
	}
	m, _ := mat.FromRows(rows)
	res, err := Fit(m)
	if err != nil {
		t.Fatal(err)
	}
	c0 := res.Components.RowView(0)
	want := 1 / math.Sqrt2
	if math.Abs(math.Abs(c0[0])-want) > 1e-6 || math.Abs(math.Abs(c0[1])-want) > 1e-6 {
		t.Fatalf("first component = %v, want +-[0.707 0.707]", c0)
	}
	ev := res.ExplainedVariance()
	if ev[0] < 0.999 {
		t.Fatalf("explained variance of PC1 = %v, want ~1 for collinear data", ev[0])
	}
}

func TestEigenvaluesSumToTrace(t *testing.T) {
	// For standardized data, total variance = number of (non-constant)
	// features; eigenvalues must sum to it.
	rng := rand.New(rand.NewSource(2))
	rows := make([][]float64, 100)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	m, _ := mat.FromRows(rows)
	res, err := Fit(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range res.Eigenvalues {
		sum += v
	}
	if math.Abs(sum-3) > 1e-9 {
		t.Fatalf("eigenvalue sum = %v, want 3", sum)
	}
	// decreasing order
	for i := 1; i < len(res.Eigenvalues); i++ {
		if res.Eigenvalues[i] > res.Eigenvalues[i-1]+1e-12 {
			t.Fatalf("eigenvalues not decreasing: %v", res.Eigenvalues)
		}
	}
}

func TestComponentsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := make([][]float64, 150)
	for i := range rows {
		a := rng.NormFloat64()
		rows[i] = []float64{a, a + 0.5*rng.NormFloat64(), rng.NormFloat64(), 0.3*a + rng.NormFloat64()}
	}
	m, _ := mat.FromRows(rows)
	res, err := Fit(m)
	if err != nil {
		t.Fatal(err)
	}
	d := 4
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			dot := mat.Dot(res.Components.RowView(i), res.Components.RowView(j))
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-8 {
				t.Fatalf("components not orthonormal: <c%d,c%d> = %v", i, j, dot)
			}
		}
	}
}

func TestConstantFeatureHandled(t *testing.T) {
	rows := [][]float64{{1, 5}, {2, 5}, {3, 5}, {4, 5}}
	m, _ := mat.FromRows(rows)
	res, err := Fit(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Eigenvalues {
		if math.IsNaN(v) {
			t.Fatal("NaN eigenvalue with constant feature")
		}
	}
}

func TestTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows := make([][]float64, 50)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	m, _ := mat.FromRows(rows)
	res, _ := Fit(m)
	p, err := res.Transform([]float64{0.5, -0.5}, 2)
	if err != nil || len(p) != 2 {
		t.Fatalf("Transform: %v, %v", p, err)
	}
	if _, err := res.Transform([]float64{1}, 1); err == nil {
		t.Fatal("short observation: want error")
	}
	if _, err := res.Transform([]float64{1, 2}, 3); err == nil {
		t.Fatal("k too large: want error")
	}
	if _, err := res.Transform([]float64{1, 2}, 0); err == nil {
		t.Fatal("k zero: want error")
	}
}

func TestTransformPreservesDistances(t *testing.T) {
	// Full-rank transform of standardized data is an isometry in
	// standardized space.
	rng := rand.New(rand.NewSource(5))
	rows := make([][]float64, 80)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	m, _ := mat.FromRows(rows)
	res, _ := Fit(m)
	a := []float64{0.1, 0.2, 0.3}
	b := []float64{-0.4, 0.5, 0.6}
	za := make([]float64, 3)
	zb := make([]float64, 3)
	for j := 0; j < 3; j++ {
		za[j] = (a[j] - res.Means[j]) / res.Stds[j]
		zb[j] = (b[j] - res.Means[j]) / res.Stds[j]
	}
	pa, _ := res.Transform(a, 3)
	pb, _ := res.Transform(b, 3)
	dz, dp := distance(za, zb), distance(pa, pb)
	if math.Abs(dz-dp) > 1e-8 {
		t.Fatalf("distance not preserved: %v vs %v", dz, dp)
	}
}

func TestImpactScoresIdentifyDrivingFeature(t *testing.T) {
	// perf depends strongly on feature 0, weakly on feature 1, not at all
	// on feature 2: impact ranking must order them 0 > 1 > 2.
	rng := rand.New(rand.NewSource(6))
	n := 400
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		f0 := rng.Float64()
		f1 := rng.Float64()
		f2 := rng.Float64()
		rows[i] = []float64{f0, f1, f2}
		y[i] = 10*f0 + 1*f1 + 0.05*rng.NormFloat64()
	}
	m, _ := mat.FromRows(rows)
	scores, err := ImpactScores(m, y)
	if err != nil {
		t.Fatal(err)
	}
	rank := RankDescending(scores)
	if rank[0] != 0 {
		t.Fatalf("top feature = %d (scores %v), want 0", rank[0], scores)
	}
	if scores[0] <= scores[2] {
		t.Fatalf("driving feature not scored above noise feature: %v", scores)
	}
	sum := 0.0
	for _, s := range scores {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("scores sum to %v, want 1", sum)
	}
}

func TestImpactScoresValidation(t *testing.T) {
	m, _ := mat.FromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := ImpactScores(m, []float64{1}); err == nil {
		t.Fatal("mismatched target length: want error")
	}
}

func TestRankDescendingStable(t *testing.T) {
	rank := RankDescending([]float64{0.2, 0.5, 0.2, 0.1})
	if rank[0] != 1 || rank[1] != 0 || rank[2] != 2 || rank[3] != 3 {
		t.Fatalf("rank = %v", rank)
	}
}

func TestJacobiOnDiagonal(t *testing.T) {
	m, _ := mat.FromRows([][]float64{{3, 0}, {0, 7}})
	vals, vecs := jacobiEigen(m)
	found3, found7 := false, false
	for _, v := range vals {
		if math.Abs(v-3) < 1e-10 {
			found3 = true
		}
		if math.Abs(v-7) < 1e-10 {
			found7 = true
		}
	}
	if !found3 || !found7 {
		t.Fatalf("eigenvalues = %v, want {3, 7}", vals)
	}
	// eigenvectors of a diagonal matrix are the identity columns
	if math.Abs(math.Abs(vecs.At(0, 0))-1) > 1e-10 && math.Abs(math.Abs(vecs.At(0, 1))-1) > 1e-10 {
		t.Fatalf("unexpected eigenvectors %v", vecs)
	}
}

// distance is the Euclidean distance between a and b.
func distance(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += (a[i] - b[i]) * (a[i] - b[i])
	}
	return math.Sqrt(s)
}
