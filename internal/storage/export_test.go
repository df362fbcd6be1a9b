package storage

import "repro/internal/types"

// Entries returns the index's (value, row ID) lists in index order.
func (ix *Index) Entries() ([]types.Value, []int32) { return ix.vals, ix.rows }
