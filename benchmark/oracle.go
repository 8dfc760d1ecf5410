package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"ipusparse/internal/sparse"
)

// residualTol is the service's own VerifyTolerance: every answer that carries
// x is re-checked client-side in float64 against the generator's matrix.
const residualTol = 1e-4

// opDeadline is the longest an op may take before it counts as failed even if
// an answer eventually arrives.
const opDeadline = 30 * time.Second

// solveAnswer is the part of a solve response the oracle reads.
type solveAnswer struct {
	Converged  bool          `json:"converged"`
	Iterations int           `json:"iterations"`
	RelRes     float64       `json:"relRes"`
	Restarts   int           `json:"restarts"`
	X          []float64     `json:"x"`
	Error      string        `json:"error"`
	Results    []solveAnswer `json:"results"`
}

// sysAnswer is the part of a register/PATCH/GET response the oracle reads.
type sysAnswer struct {
	ID         string `json:"id"`
	N          int    `json:"n"`
	NNZ        int    `json:"nnz"`
	Generation int    `json:"generation"`
}

// relResidual is ‖b − A·x‖₂/‖b‖₂ in float64.
func relResidual(m *sparse.Matrix, x, b, scratch []float64) float64 {
	m.MulVec(x, scratch)
	var rr, bb float64
	for i, v := range scratch {
		d := b[i] - v
		rr += d * d
		bb += b[i] * b[i]
	}
	if bb == 0 {
		return math.Sqrt(rr)
	}
	return math.Sqrt(rr / bb)
}

// checkFull verifies an answer that carries x against the matrix and b.
func checkFull(m *sparse.Matrix, b []float64, a *solveAnswer, scratch []float64) error {
	if a.Error != "" {
		return fmt.Errorf("item error: %s", a.Error)
	}
	if !a.Converged {
		return errors.New("converged:false")
	}
	if len(a.X) != m.N {
		return fmt.Errorf("x has %d entries, want %d", len(a.X), m.N)
	}
	if r := relResidual(m, a.X, b, scratch); !(r <= residualTol) {
		return fmt.Errorf("residual %.3g above %.0e", r, residualTol)
	}
	return nil
}

// leanExpect is what an omitX answer must report: the stack is deterministic,
// so the iteration count seen in warm-up for the same right-hand side must
// repeat exactly, and the solver's own residual stays within 10x its
// tolerance.
type leanExpect struct {
	Iterations int
	Tolerance  float64
}

func checkLean(a *solveAnswer, want leanExpect) error {
	if a.Error != "" {
		return fmt.Errorf("item error: %s", a.Error)
	}
	if !a.Converged {
		return errors.New("converged:false")
	}
	if !(a.RelRes <= 10*want.Tolerance) {
		return fmt.Errorf("relRes %.3g above 10x tolerance %.0e", a.RelRes, want.Tolerance)
	}
	if a.Iterations != want.Iterations {
		return fmt.Errorf("%d iterations, warm-up saw %d", a.Iterations, want.Iterations)
	}
	return nil
}

// checkStatus fails any transport error, non-2xx status or an answer that
// arrived after the deadline.
func checkStatus(status int, err error, elapsed, deadline time.Duration) error {
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	if status < 200 || status > 299 {
		return fmt.Errorf("status %d %s", status, http.StatusText(status))
	}
	if elapsed > deadline {
		return fmt.Errorf("answered after %s, deadline %s", elapsed.Round(time.Millisecond), deadline)
	}
	return nil
}

func decodeSolve(body []byte) (*solveAnswer, error) {
	var a solveAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	return &a, nil
}

func decodeSys(body []byte) (*sysAnswer, error) {
	var a sysAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	return &a, nil
}

// checkSys verifies a system description against the generator's matrix. The
// ID is the fingerprint of the matrix the server built, so equality proves
// both sides hold the same entries. generation 0 skips the generation check.
func checkSys(a *sysAnswer, s *system, generation int) error {
	if a.ID != s.ID {
		return fmt.Errorf("id %s, generator fingerprinted %s", a.ID, s.ID)
	}
	if a.N != s.M.N || a.NNZ != s.M.NNZ() {
		return fmt.Errorf("n=%d nnz=%d, want n=%d nnz=%d", a.N, a.NNZ, s.M.N, s.M.NNZ())
	}
	if generation > 0 && a.Generation != generation {
		return fmt.Errorf("generation %d, want %d", a.Generation, generation)
	}
	return nil
}
