// Package value defines the two-sorted constants of IDLOG (§2.1 of the
// paper) and the tuples built from them.
//
// Sort u values are uninterpreted constants from the universal domain,
// represented by interned symbol IDs. Sort i values are the natural numbers
// used for tuple-identifiers and arithmetic.
package value

import (
	"encoding/binary"
	"fmt"
	"strings"

	"idlog/internal/symbol"
)

// Sort distinguishes the two sorts of the logic (§2.2).
type Sort uint8

const (
	// U is the uninterpreted sort (elements of the universal domain).
	U Sort = iota
	// I is the interpreted sort: the natural numbers.
	I
)

// String implements fmt.Stringer using the paper's 0/1 type notation
// (0 = uninterpreted, 1 = interpreted).
func (s Sort) String() string {
	switch s {
	case U:
		return "u"
	case I:
		return "i"
	default:
		return fmt.Sprintf("Sort(%d)", uint8(s))
	}
}

// Value is one constant of either sort. The zero Value is the invalid
// u-constant (symbol.None) and compares unequal to any parsed constant.
type Value struct {
	// Num holds the natural number when Sort == I.
	Num int64
	// Sym holds the interned constant when Sort == U.
	Sym symbol.ID
	// Sort selects which field is meaningful.
	Sort Sort
}

// Sym returns the sort-u value for an interned symbol.
func Sym(id symbol.ID) Value { return Value{Sort: U, Sym: id} }

// Str interns name in the default symbol table and returns its value.
func Str(name string) Value { return Sym(symbol.Intern(name)) }

// Int returns the sort-i value n. Negative numbers are permitted at this
// layer (the arithmetic built-ins enforce natural-number semantics where
// the paper requires it).
func Int(n int64) Value { return Value{Sort: I, Num: n} }

// IsInt reports whether v is of the interpreted sort.
func (v Value) IsInt() bool { return v.Sort == I }

// Equal reports sort-respecting equality.
func (v Value) Equal(w Value) bool {
	if v.Sort != w.Sort {
		return false
	}
	if v.Sort == I {
		return v.Num == w.Num
	}
	return v.Sym == w.Sym
}

// Compare imposes a total order: all sort-u values (by name) precede all
// sort-i values (by magnitude). The order on u-constants is by interned
// name so that canonical (sorted) ID-functions are independent of
// interning order.
func (v Value) Compare(w Value) int {
	if v.Sort != w.Sort {
		if v.Sort == U {
			return -1
		}
		return 1
	}
	if v.Sort == I {
		switch {
		case v.Num < w.Num:
			return -1
		case v.Num > w.Num:
			return 1
		default:
			return 0
		}
	}
	if v.Sym == w.Sym {
		return 0
	}
	return strings.Compare(symbol.Name(v.Sym), symbol.Name(w.Sym))
}

// String renders the value in concrete syntax.
func (v Value) String() string {
	if v.Sort == I {
		return fmt.Sprintf("%d", v.Num)
	}
	return symbol.Name(v.Sym)
}

// Tuple is a fixed-arity sequence of values.
type Tuple []Value

// Clone returns a copy of t that shares no storage with it.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports element-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically (shorter tuples first on ties).
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	default:
		return 0
	}
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Project returns the sub-tuple at the given 0-based column positions.
func (t Tuple) Project(cols []int) Tuple {
	p := make(Tuple, len(cols))
	for i, c := range cols {
		p[i] = t[c]
	}
	return p
}

// keyByte tags distinguish sorts inside encoded keys so that, e.g., the
// u-constant with symbol ID 7 never collides with the integer 7.
const (
	keyU byte = 0x01
	keyI byte = 0x02
)

// AppendValueKey appends the canonical binary encoding of one value to
// dst; the building block of tuple keys.
func AppendValueKey(dst []byte, v Value) []byte {
	var buf [9]byte
	if v.Sort == I {
		buf[0] = keyI
		binary.BigEndian.PutUint64(buf[1:], uint64(v.Num))
		return append(dst, buf[:9]...)
	}
	buf[0] = keyU
	binary.BigEndian.PutUint32(buf[1:], uint32(v.Sym))
	return append(dst, buf[:5]...)
}

// AppendKey appends a canonical binary encoding of t to dst and returns
// the extended slice. Two tuples encode to the same bytes iff Equal.
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t {
		dst = AppendValueKey(dst, v)
	}
	return dst
}

// Key returns the canonical encoding of t as a string, suitable for use
// as a map key.
func (t Tuple) Key() string { return string(t.AppendKey(nil)) }

// ProjectKey encodes only the listed 0-based columns of t.
func (t Tuple) ProjectKey(cols []int) string {
	var dst []byte
	for _, c := range cols {
		dst = AppendValueKey(dst, t[c])
	}
	return string(dst)
}

// Ints builds a sort-i tuple from the given numbers; a test convenience.
func Ints(ns ...int64) Tuple {
	t := make(Tuple, len(ns))
	for i, n := range ns {
		t[i] = Int(n)
	}
	return t
}

// Strs builds a sort-u tuple by interning the given names; a test
// convenience.
func Strs(names ...string) Tuple {
	t := make(Tuple, len(names))
	for i, n := range names {
		t[i] = Str(n)
	}
	return t
}
