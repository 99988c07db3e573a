//go:build !((linux || darwin) && (amd64 || arm64))

package store

import (
	"bedom/internal/graph"
)

// MmapSupported reports whether this build can serve raw snapshots zero-copy.
// On 32-bit and non-mmap platforms it is false and every snapshot — raw or
// varint — goes through the allocating decode path, which handles both
// formats (the fallback matrix in DESIGN.md §13).
func MmapSupported() bool { return false }

// Mapping is a stub on platforms without the zero-copy path.
type Mapping struct{}

// Size returns the mapped length in bytes.
func (m *Mapping) Size() int64 { return 0 }

// Close is a no-op on platforms without the zero-copy path.
func (m *Mapping) Close() error { return nil }

// OpenMmapSnapshot always falls back on platforms without mmap support.
func OpenMmapSnapshot(path string) (SnapshotMeta, *graph.Graph, *Mapping, error) {
	return SnapshotMeta{}, nil, nil, ErrNotMmapable
}
