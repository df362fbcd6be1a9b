// Package schema describes the shape of relations flowing between the
// storage, planning, and execution layers: named, typed columns with an
// optional source-table qualifier so that expressions written against
// aliased tables can be resolved after joins.
package schema

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// Column is one attribute of a relation.
type Column struct {
	// Table is the qualifier (table name or alias) the column is visible
	// under; it may be empty for computed columns.
	Table string
	// Name is the column name, lower-cased.
	Name string
	// Kind is the declared value kind.
	Kind types.Kind
}

// QualifiedName renders "table.name" or just "name" when unqualified.
func (c Column) QualifiedName() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Admits reports whether v may be stored in the column: its kind is the
// column's, or it is NULL.
func (c Column) Admits(v types.Value) bool {
	k := v.Kind()
	return k == types.KindNull || k == c.Kind
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// New builds a schema from columns.
func New(cols ...Column) *Schema {
	return &Schema{Columns: cols}
}

// Col is a convenience constructor for a Column.
func Col(table, name string, kind types.Kind) Column {
	return Column{Table: strings.ToLower(table), Name: strings.ToLower(name), Kind: kind}
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// Resolve finds the index of a column reference. If table is empty, the
// name must be unambiguous across all columns; otherwise both must match.
// The second return distinguishes "not found" (-1,nil error? no) — Resolve
// returns an error for both missing and ambiguous references.
func (s *Schema) Resolve(table, name string) (int, error) {
	table = strings.ToLower(table)
	name = strings.ToLower(name)
	found := -1
	for i, c := range s.Columns {
		if c.Name != name {
			continue
		}
		if table != "" && c.Table != table {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("schema: ambiguous column reference %q", Column{Table: table, Name: name}.QualifiedName())
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("schema: column %q not found", Column{Table: table, Name: name}.QualifiedName())
	}
	return found, nil
}

// IndexOf returns the index of the first column with the given name
// regardless of qualifier, or -1.
func (s *Schema) IndexOf(name string) int {
	name = strings.ToLower(name)
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// WithQualifier returns a copy of s with every column's Table set to q.
// Used when a base table or subquery is aliased in a FROM clause.
func (s *Schema) WithQualifier(q string) *Schema {
	q = strings.ToLower(q)
	out := &Schema{Columns: make([]Column, len(s.Columns))}
	for i, c := range s.Columns {
		c.Table = q
		out.Columns[i] = c
	}
	return out
}

// Concat returns the concatenation of two schemas (join output shape).
func Concat(a, b *Schema) *Schema {
	out := &Schema{Columns: make([]Column, 0, len(a.Columns)+len(b.Columns))}
	out.Columns = append(out.Columns, a.Columns...)
	out.Columns = append(out.Columns, b.Columns...)
	return out
}

// Clone returns a deep copy of s.
func (s *Schema) Clone() *Schema {
	out := &Schema{Columns: make([]Column, len(s.Columns))}
	copy(out.Columns, s.Columns)
	return out
}

// String renders the schema for diagnostics.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.QualifiedName(), c.Kind)
	}
	b.WriteByte(')')
	return b.String()
}

// Row is a tuple whose arity matches some Schema.
type Row []types.Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
