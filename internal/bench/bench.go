package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// Load reads a ledger from path (see Parse).
func Load(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(b)
}

// LoadOrNew is Load, except a missing file yields a fresh empty ledger
// — the merge-by-key writers start from this.
func LoadOrNew(path string) (*File, error) {
	f, err := Load(path)
	if os.IsNotExist(err) {
		return NewFile(), nil
	}
	return f, err
}

// Parse decodes ledger bytes. A ledger without schema_version (the
// flat pre-schema layout) or of another version is rejected rather than
// silently misread.
func Parse(b []byte) (*File, error) {
	var probe struct {
		SchemaVersion *int `json:"schema_version"`
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	if probe.SchemaVersion == nil {
		return nil, fmt.Errorf("bench: ledger has no schema_version field")
	}
	if *probe.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("bench: schema_version %d, this build understands %d", *probe.SchemaVersion, SchemaVersion)
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	if f.Fleet == nil {
		f.Fleet = map[string]*FleetEntry{}
	}
	return &f, nil
}

// Save writes the ledger with stable formatting (indented, sorted keys
// courtesy of encoding/json's map ordering, trailing newline) so diffs
// stay readable.
func Save(path string, f *File) error {
	f.SchemaVersion = SchemaVersion
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Update loads path (or starts fresh), applies fn to merge new entries
// in, and saves — the single call sites use for merge-by-key writes.
func Update(path string, fn func(*File) error) error {
	f, err := LoadOrNew(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		return err
	}
	f.Host = CurrentHost() // the writer's host wins; stale host info lies
	return Save(path, f)
}
