// Crash-safe registration state: every acknowledged registration is recorded
// in an append-only JSONL write-ahead log (fsynced before the acknowledgement)
// and periodically folded into an atomic snapshot. On startup both are
// replayed — snapshot first, then the WAL, last record per system winning —
// so a service killed at any instant recovers exactly the registrations it
// acknowledged, tolerating a torn final WAL record and a torn snapshot (the
// footprints of a crash mid-append and mid-compaction).

package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ipusparse/internal/config"
	"ipusparse/internal/sparse"
	"ipusparse/internal/telemetry"
	"ipusparse/internal/tune"
)

const (
	walName      = "registry.wal.jsonl"
	snapshotName = "registry.snapshot.json"
)

// RegistrationRecord is one persisted registration: the full matrix (JSON
// round-trips float64 exactly, so the recovered matrix fingerprints to the
// same system ID) and its solver configuration. Machine and partition
// strategy are service-level options supplied again at restart. The record is
// also the migration unit of the cluster tier: GET /v1/registry exports them,
// POST /v1/registry imports them idempotently on a replacement shard.
type RegistrationRecord struct {
	ID     string        `json:"id"`
	N      int           `json:"n"`
	Diag   []float64     `json:"diag"`
	RowPtr []int         `json:"rowPtr"`
	Cols   []int         `json:"cols"`
	Vals   []float64     `json:"vals"`
	Config config.Config `json:"config"`
	// Generation is the values generation the record carries (1 = as
	// registered; each values-only PATCH bumps it). Zero on legacy records,
	// which replay as generation 1.
	Generation int `json:"generation,omitempty"`
	// FP is the fingerprint of the record's current values when it no longer
	// matches the stable system ID (the footprint of a values-only update).
	// Empty when the values are still the registration-time ones.
	FP string `json:"fp,omitempty"`
	// Tune is the cached autotuner decision riding the record, so a replayed
	// or migrated system serves with its raced winner without re-racing.
	Tune *tune.Decision `json:"tune,omitempty"`
	// Deleted marks a tombstone: replay removes the named system. Tombstones
	// carry no matrix payload.
	Deleted bool `json:"deleted,omitempty"`
}

func newRegistrationRecord(sys *system) RegistrationRecord {
	rec := RegistrationRecord{
		ID:         sys.id,
		N:          sys.m.N,
		Diag:       sys.m.Diag,
		RowPtr:     sys.m.RowPtr,
		Cols:       sys.m.Cols,
		Vals:       sys.m.Vals,
		Config:     sys.base,
		Generation: sys.generation,
		Tune:       sys.tune,
	}
	if fp := sparse.FormatFingerprint(sys.key.Matrix); fp != sys.id {
		rec.FP = fp
	}
	return rec
}

// NewRegistrationRecord builds the migration record for a matrix + config
// pair without a running service — the router uses it to register a system
// on every shard of its replica set from one locally built matrix. A nil cfg
// leaves the record's config zero; importing shards then apply their own
// default solver configuration.
func NewRegistrationRecord(m *sparse.Matrix, cfg *config.Config) RegistrationRecord {
	rec := RegistrationRecord{
		ID:     m.FingerprintString(),
		N:      m.N,
		Diag:   m.Diag,
		RowPtr: m.RowPtr,
		Cols:   m.Cols,
		Vals:   m.Vals,
	}
	if cfg != nil {
		rec.Config = *cfg
	}
	return rec
}

// Matrix reconstructs and validates the record's matrix, requiring its
// fingerprint to reproduce the recorded values fingerprint (FP when the
// record carries post-update values, the stable system ID otherwise) — a
// corrupted record is rejected rather than silently served.
func (r *RegistrationRecord) Matrix() (*sparse.Matrix, error) {
	m := &sparse.Matrix{N: r.N, Diag: r.Diag, RowPtr: r.RowPtr, Cols: r.Cols, Vals: r.Vals}
	if m.Vals == nil {
		m.Vals = []float64{}
	}
	if m.Cols == nil {
		m.Cols = []int{}
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("record %s: %w", r.ID, err)
	}
	want := r.ID
	if r.FP != "" {
		want = r.FP
	}
	if got := m.FingerprintString(); got != want {
		return nil, fmt.Errorf("record %s: recovered matrix fingerprints to %s, want %s", r.ID, got, want)
	}
	return m, nil
}

// configPtr returns the record's config for registration: nil when the
// record carries none (zero value), selecting the service default.
func (r *RegistrationRecord) configPtr() *config.Config {
	if r.Config.Solver.Type == "" {
		return nil
	}
	cfg := r.Config
	return &cfg
}

// ExportRegistrations snapshots every registered system as a self-contained
// migration record, in no particular order.
func (s *Service) ExportRegistrations() []RegistrationRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RegistrationRecord, 0, len(s.systems))
	for _, sys := range s.systems {
		out = append(out, newRegistrationRecord(sys))
	}
	return out
}

// ImportRegistrations registers every record idempotently (a system already
// registered under the same key is a no-op). The first failing record aborts
// the import; retrying the whole batch is safe.
func (s *Service) ImportRegistrations(ctx context.Context, recs []RegistrationRecord) (ImportReport, error) {
	rep := ImportReport{Systems: make([]SystemInfo, 0, len(recs))}
	for _, rec := range recs {
		m, err := rec.Matrix()
		if err != nil {
			return rep, fmt.Errorf("serve: importing %s: %w", rec.ID, err)
		}
		info, err := s.register(ctx, m, rec.configPtr(),
			regMeta{id: rec.ID, generation: rec.Generation, tun: rec.Tune, noRace: rec.Tune != nil})
		if err != nil {
			return rep, fmt.Errorf("serve: importing %s: %w", rec.ID, err)
		}
		rep.Imported++
		rep.Systems = append(rep.Systems, info)
	}
	return rep, nil
}

// registry owns the state directory: the open WAL file and the current merged
// record set (registration order preserved).
type registry struct {
	dir  string
	errs *telemetry.Counter // registry_wal_errors_total (nil = uncounted)

	mu   sync.Mutex
	wal  *os.File
	recs []RegistrationRecord
}

// openRegistry loads the state directory (creating it if needed), merges
// snapshot + WAL, and returns the registry with the recovered records in
// registration order. The WAL is opened for appending.
func openRegistry(dir string) (*registry, []RegistrationRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: state dir: %w", err)
	}
	recs, err := loadState(dir)
	if err != nil {
		return nil, nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: opening WAL: %w", err)
	}
	return &registry{dir: dir, wal: wal, recs: recs}, recs, nil
}

// loadState merges the snapshot (if any) with the WAL (if any); the last
// record per system ID wins. Torn tails are tolerated wherever a crash can
// leave one: a half-appended trailing WAL record is dropped, and a torn
// snapshot falls back to the compaction temp file (a crash between writing
// the new snapshot and renaming it) or, failing that, to WAL-only replay —
// every surviving record still self-validates through its fingerprint.
// Corruption anywhere else is an error.
func loadState(dir string) ([]RegistrationRecord, error) {
	walOnly := false
	recs, snapErr := loadSnapshot(filepath.Join(dir, snapshotName))
	if snapErr != nil {
		// The snapshot is torn. The compaction temp file, when it parses, is
		// a complete newer copy of the same state (compact writes it fully
		// and fsyncs before renaming over the snapshot).
		if tmp, err := loadSnapshot(filepath.Join(dir, snapshotName+".tmp")); err == nil && tmp != nil {
			recs = tmp
			snapErr = nil
		} else if _, err := os.Stat(filepath.Join(dir, walName)); err == nil {
			// No usable snapshot at all: replay the WAL alone. The WAL is
			// only truncated after a snapshot rename is durable, so in the
			// crash model it still carries the live records. If it turns out
			// to hold none, refuse to start empty over known-lost state.
			recs, walOnly = nil, true
		} else {
			return nil, snapErr
		}
	}
	f, err := os.Open(filepath.Join(dir, walName))
	if err != nil {
		if os.IsNotExist(err) {
			if snapErr != nil {
				return nil, snapErr
			}
			return recs, nil
		}
		return nil, fmt.Errorf("serve: reading WAL: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<28)
	var pendingErr error
	for sc.Scan() {
		if pendingErr != nil {
			// The bad line was not the last one: real corruption.
			return nil, pendingErr
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec RegistrationRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			pendingErr = fmt.Errorf("serve: corrupt WAL record: %w", err)
			continue
		}
		recs = mergeRecord(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: scanning WAL: %w", err)
	}
	if walOnly && len(recs) == 0 {
		return nil, snapErr
	}
	return recs, nil
}

// loadSnapshot reads one snapshot file: (nil, nil) when it does not exist,
// an error when it exists but does not parse.
func loadSnapshot(path string) ([]RegistrationRecord, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: reading snapshot: %w", err)
	}
	var recs []RegistrationRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("serve: corrupt snapshot %s: %w", filepath.Base(path), err)
	}
	if recs == nil {
		recs = []RegistrationRecord{}
	}
	return recs, nil
}

// mergeRecord replaces an existing record with the same ID or appends; a
// tombstone removes its system.
func mergeRecord(recs []RegistrationRecord, rec RegistrationRecord) []RegistrationRecord {
	if rec.Deleted {
		for i := range recs {
			if recs[i].ID == rec.ID {
				return append(recs[:i], recs[i+1:]...)
			}
		}
		return recs
	}
	for i := range recs {
		if recs[i].ID == rec.ID {
			recs[i] = rec
			return recs
		}
	}
	return append(recs, rec)
}

// countErr bumps the WAL-error counter on the way out of a failing write or
// fsync, so persistence trouble is visible on /metrics before the next
// registration fails loudly.
func (r *registry) countErr(err error) error {
	if err != nil && r.errs != nil {
		r.errs.Inc()
	}
	return err
}

// append durably logs one registration: the record is written and fsynced
// before append returns, so an acknowledged registration survives kill -9.
func (r *registry) append(rec RegistrationRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.wal.Write(data); err != nil {
		return r.countErr(err)
	}
	if err := r.wal.Sync(); err != nil {
		return r.countErr(err)
	}
	r.recs = mergeRecord(r.recs, rec)
	return nil
}

// compact folds the current record set into a fresh snapshot (written to a
// temp file, fsynced, then atomically renamed) and truncates the WAL. A crash
// between rename and truncate is harmless: replay merges snapshot and WAL
// idempotently.
func (r *registry) compactLocked() error {
	data, err := json.MarshalIndent(r.recs, "", " ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(r.dir, snapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return r.countErr(err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return r.countErr(err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return r.countErr(err)
	}
	if err := f.Close(); err != nil {
		return r.countErr(err)
	}
	if err := os.Rename(tmp, filepath.Join(r.dir, snapshotName)); err != nil {
		return r.countErr(err)
	}
	if err := r.wal.Truncate(0); err != nil {
		return r.countErr(err)
	}
	if _, err := r.wal.Seek(0, 0); err != nil {
		return r.countErr(err)
	}
	return r.countErr(r.wal.Sync())
}

func (r *registry) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wal != nil {
		_ = r.wal.Close()
		r.wal = nil
	}
}

// compact snapshots the registry's state and truncates the WAL; a no-op
// without an attached registry.
func (s *Service) compact() error {
	s.mu.Lock()
	reg := s.registry
	s.mu.Unlock()
	if reg == nil {
		return nil
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.wal == nil {
		return nil
	}
	return reg.compactLocked()
}
