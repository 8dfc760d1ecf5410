package sparse

import (
	"bytes"
	"strings"
	"testing"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	m := RandomSPD(20, 4, 11)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != m.N || got.NNZ() != m.NNZ() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", got.N, got.NNZ(), m.N, m.NNZ())
	}
	for i := 0; i < m.N; i++ {
		if got.Diag[i] != m.Diag[i] {
			t.Fatalf("diag %d mismatch", i)
		}
		lo, hi := m.RowRange(i)
		for k := lo; k < hi; k++ {
			if got.At(i, m.Cols[k]) != m.Vals[k] {
				t.Fatalf("entry (%d,%d) mismatch", i, m.Cols[k])
			}
		}
	}
}

func TestReadMatrixMarketSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
% 1-D Laplacian, lower triangle
3 3 5
1 1 2.0
2 1 -1.0
2 2 2.0
3 2 -1.0
3 3 2.0
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	want := Laplacian1D(3)
	if m.NNZ() != want.NNZ() {
		t.Fatalf("nnz = %d, want %d", m.NNZ(), want.NNZ())
	}
	if m.At(0, 1) != -1 || m.At(1, 0) != -1 {
		t.Error("symmetric expansion failed")
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
2 2 3
1 1
1 2
2 2
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 || m.At(0, 1) != 1 || m.At(1, 1) != 1 {
		t.Error("pattern entries should be 1")
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"no header":     "1 1 1\n1 1 2.0\n",
		"array format":  "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"complex":       "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"nonsquare":     "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n",
		"out of range":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n",
		"short":         "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n",
		"bad value":     "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 xyz\n",
		"bad indices":   "%%MatrixMarket matrix coordinate real general\n1 1 1\na b 1.0\n",
		"skew":          "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n",
		"negative size": "%%MatrixMarket matrix coordinate real general\n-1 -1 0\n",
		"no size line":  "%%MatrixMarket matrix coordinate real general\n% only a comment\n",
		"zero entries":  "%%MatrixMarket matrix coordinate real general\n2 2 0\n",
		"nan value":     "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 nan\n",
		"inf value":     "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 -inf\n",
		"overflow sum":  "%%MatrixMarket matrix coordinate real general\n1 1 2\n1 1 1e308\n1 1 1e308\n",
		"empty row":     "%%MatrixMarket matrix coordinate real symmetric\n5 5 2\n1 1 1.0\n2 1 1.0\n",
		"huge size":     "%%MatrixMarket matrix coordinate real general\n4000000000000000000 4000000000000000000 1\n1 1 1.0\n",
	}
	for name, src := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadMatrixMarketSkipsComments(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
% comment line
% another

2 2 2
1 1 3.5
% inline comment
2 2 4.5
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.Diag[0] != 3.5 || m.Diag[1] != 4.5 {
		t.Error("values wrong")
	}
}

// FuzzReadMatrixMarket holds the reader to its contract on any input: a
// matrix that passes Validate, or an error, never a panic. The seed corpus is
// in testdata/fuzz/FuzzReadMatrixMarket; a finding lands there as a new file.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMatrixMarket(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted an invalid matrix: %v", err)
		}
		if m.N < 1 || !allFinite(m.Diag) || !allFinite(m.Vals) {
			t.Fatalf("accepted an empty or non-finite %dx%d matrix", m.N, m.N)
		}
	})
}
