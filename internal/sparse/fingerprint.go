package sparse

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// Fingerprint returns a deterministic 64-bit digest of the matrix: its
// dimension, sparsity structure (RowPtr, Cols) and exact values (Diag, Vals
// as IEEE-754 bit patterns). Two matrices fingerprint equal iff they are the
// same stored matrix entry for entry, and the digest is stable across runs
// and platforms — it is the cache key of the prepared-pipeline service, where
// one symbolic/compile phase is amortized over every solve that shares the
// sparsity pattern and coefficients.
func (m *Matrix) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wu(uint64(m.N))
	// Section tags keep e.g. (RowPtr ‖ Cols) unambiguous under concatenation.
	wu(0xd1a6) // diagonal
	for _, v := range m.Diag {
		wu(math.Float64bits(v))
	}
	wu(0x509c) // structure
	for _, v := range m.RowPtr {
		wu(uint64(v))
	}
	for _, v := range m.Cols {
		wu(uint64(v))
	}
	wu(0x5a15) // off-diagonal values
	for _, v := range m.Vals {
		wu(math.Float64bits(v))
	}
	return h.Sum64()
}

// FingerprintString formats the fingerprint as the service's external system
// identifier.
func (m *Matrix) FingerprintString() string { return FormatFingerprint(m.Fingerprint()) }

// FormatFingerprint formats a Fingerprint digest as FingerprintString does.
func FormatFingerprint(fp uint64) string { return fmt.Sprintf("m%016x", fp) }

// PatternFingerprint returns a deterministic 64-bit digest of the sparsity
// pattern alone: dimension, RowPtr and Cols, with every value excluded (the
// dense diagonal is structural — each row always stores one — so it
// contributes nothing either). Two matrices pattern-fingerprint equal iff a
// prepared pipeline built for one can adopt the other's values in place:
// partition, halo schedule and compiled program depend only on what this
// digest covers. The hash domain is seeded differently from Fingerprint so
// the two digests of one matrix never collide by construction.
func (m *Matrix) PatternFingerprint() uint64 {
	// Manual FNV-1a, byte-identical to hash/fnv over the same little-endian
	// words but with zero allocation: this digest guards every UpdateValues
	// call, which must stay allocation-free on the native refresh hot path.
	h := fnv1aWord(fnv1aOffset, 0x9a77e12) // domain tag: pattern, not full
	h = fnv1aWord(h, uint64(m.N))
	h = fnv1aWord(h, 0x509c) // structure
	for _, v := range m.RowPtr {
		h = fnv1aWord(h, uint64(v))
	}
	for _, v := range m.Cols {
		h = fnv1aWord(h, uint64(v))
	}
	return h
}

const (
	fnv1aOffset uint64 = 14695981039346656037
	fnv1aPrime  uint64 = 1099511628211
)

// fnv1aWord folds one value into an FNV-1a state as 8 little-endian bytes,
// matching hash/fnv's byte-wise definition exactly.
func fnv1aWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnv1aPrime
		v >>= 8
	}
	return h
}

// PatternFingerprintString formats the pattern fingerprint as the service's
// external structure identifier.
func (m *Matrix) PatternFingerprintString() string {
	return FormatPatternFingerprint(m.PatternFingerprint())
}

// FormatPatternFingerprint formats a PatternFingerprint digest as
// PatternFingerprintString does.
func FormatPatternFingerprint(fp uint64) string { return fmt.Sprintf("p%016x", fp) }
