// Package types implements STRIP's value system.
//
// STRIP stores fixed-length fields only (paper §6.1), so a Value is a
// 32-byte struct rather than an interface: a kind, one 64-bit payload word
// (an INT's or TIME's int64, or a FLOAT's bits) and a string header. It is
// cheap to copy, usable as a map key (uniqueness hash tables key on tuples
// of values), and free of per-value heap allocation.
//
// One equality rule holds for ==, Hash and Compare: Float folds −0 to +0
// and every NaN to one canonical NaN, so two values of one kind are == when
// and only when Compare calls them equal, and all NaNs are one value —
// the value the red-black tree, a hash probe and GROUP BY all agree on.
// Across kinds, only an INT and a FLOAT can compare equal (numerically);
// they are never ==, which is why storage widens INT to FLOAT in a FLOAT
// column before a value is stored or probed.
package types

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The kinds supported by STRIP columns.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindTime // microseconds on the engine clock (virtual or real)
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "TEXT"
	case KindTime:
		return "TIME"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// KindFromName parses a column type name as accepted by CREATE TABLE.
func KindFromName(name string) (Kind, error) {
	switch name {
	case "INT", "INTEGER", "BIGINT", "int", "integer", "bigint":
		return KindInt, nil
	case "FLOAT", "REAL", "DOUBLE", "float", "real", "double":
		return KindFloat, nil
	case "TEXT", "CHAR", "VARCHAR", "STRING", "text", "char", "varchar", "string":
		return KindString, nil
	case "TIME", "TIMESTAMP", "time", "timestamp":
		return KindTime, nil
	default:
		return KindNull, fmt.Errorf("types: unknown column type %q", name)
	}
}

// Value is a single fixed-width field value. The zero Value is NULL.
//
// Value is comparable with == (all fields are comparable), which the rule
// system relies on for uniqueness hash tables.
type Value struct {
	kind Kind
	n    uint64 // KindInt and KindTime: the int64; KindFloat: the bits
	s    string
}

// canonicalNaN is the one NaN a FLOAT value holds.
var canonicalNaN = math.Float64bits(math.NaN())

// int reads the payload of a KindInt or KindTime value.
func (v *Value) int() int64 { return int64(v.n) }

// float reads the payload of a KindFloat value.
func (v *Value) float() float64 { return math.Float64frombits(v.n) }

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// Float returns a floating-point value. −0 becomes +0 and every NaN the
// canonical NaN, so that == agrees with Compare.
func Float(v float64) Value {
	n := math.Float64bits(v)
	switch {
	case v == 0:
		n = 0
	case v != v:
		n = canonicalNaN
	}
	return Value{kind: KindFloat, n: n}
}

// Str returns a string value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Time returns a timestamp value from microseconds on the engine clock.
func Time(micros int64) Value { return Value{kind: KindTime, n: uint64(micros)} }

// Kind reports the value's dynamic kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It panics if the kind is not KindInt.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("types: Int() on %s value", v.kind))
	}
	return v.int()
}

// Float returns the floating-point payload, converting integers.
// It panics for non-numeric kinds.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.float()
	case KindInt:
		return float64(v.int())
	default:
		panic(fmt.Sprintf("types: Float() on %s value", v.kind))
	}
}

// Str returns the string payload. It panics if the kind is not KindString.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("types: Str() on %s value", v.kind))
	}
	return v.s
}

// Micros returns the timestamp payload in engine microseconds.
// It panics if the kind is not KindTime.
func (v Value) Micros() int64 {
	if v.kind != KindTime {
		panic(fmt.Sprintf("types: Micros() on %s value", v.kind))
	}
	return v.int()
}

// Numeric reports whether the value is an INT or FLOAT.
func (v Value) Numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value for display and tracing.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindTime:
		return fmt.Sprintf("@%dus", v.int())
	default:
		return "?"
	}
}

// Compare orders two values: -1 if v < o, 0 if equal, +1 if v > o.
// NULL sorts before everything; mixed INT/FLOAT compare numerically;
// otherwise comparing different kinds orders by kind.
func (v Value) Compare(o Value) int { return Compare(&v, &o) }

// Compare is Value.Compare over values read in place: the query row loop
// compares fields inside records and result slabs without copying them.
func Compare(v, o *Value) int {
	if v.kind == o.kind {
		switch v.kind {
		case KindInt, KindTime:
			return cmpInt(v.int(), o.int())
		case KindFloat:
			return cmpFloat(v.float(), o.float())
		case KindString:
			return strings.Compare(v.s, o.s)
		default:
			return 0
		}
	}
	switch {
	case v.kind == KindNull:
		return -1
	case o.kind == KindNull:
		return 1
	case v.Numeric() && o.Numeric():
		return cmpFloat(v.Float(), o.Float())
	default:
		return cmpInt(int64(v.kind), int64(o.kind))
	}
}

// Equal reports whether two values compare equal (numeric cross-kind
// equality included).
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// hashSeed keys string hashing for the life of the process; hashes never
// leave it.
var hashSeed = maphash.MakeSeed()

// Hash folds the value into the running hash h, consistently with ==:
// values that compare == hash alike (the one zero and the one NaN that
// Float keeps included). Group-by tables chain it across exactly the
// grouped columns.
func (v *Value) Hash(h uint64) uint64 {
	var w uint64
	switch v.kind {
	case KindInt, KindTime, KindFloat:
		w = v.n
	case KindString:
		w = maphash.String(hashSeed, v.s)
	}
	hi, lo := bits.Mul64(h^w^uint64(v.kind)<<56, 0x9e3779b97f4a7c15)
	return hi ^ lo
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	// NaNs sort low so ordering stays total.
	case math.IsNaN(a) && math.IsNaN(b):
		return 0
	case math.IsNaN(a):
		return -1
	default:
		return 1
	}
}

// Add returns v + o for numeric values (INT+INT stays INT).
func Add(v, o Value) (Value, error) { return arith(v, o, '+') }

// Sub returns v - o for numeric values.
func Sub(v, o Value) (Value, error) { return arith(v, o, '-') }

// Mul returns v * o for numeric values.
func Mul(v, o Value) (Value, error) { return arith(v, o, '*') }

// Div returns v / o for numeric values; integer division truncates.
func Div(v, o Value) (Value, error) { return arith(v, o, '/') }

func arith(v, o Value, op byte) (Value, error) {
	if !v.Numeric() || !o.Numeric() {
		return Null(), fmt.Errorf("types: arithmetic %c on %s and %s", op, v.kind, o.kind)
	}
	if v.kind == KindInt && o.kind == KindInt {
		a, b := v.int(), o.int()
		switch op {
		case '+':
			return Int(a + b), nil
		case '-':
			return Int(a - b), nil
		case '*':
			return Int(a * b), nil
		case '/':
			if b == 0 {
				return Null(), fmt.Errorf("types: integer division by zero")
			}
			return Int(a / b), nil
		}
	}
	a, b := v.Float(), o.Float()
	switch op {
	case '+':
		return Float(a + b), nil
	case '-':
		return Float(a - b), nil
	case '*':
		return Float(a * b), nil
	case '/':
		return Float(a / b), nil
	}
	return Null(), fmt.Errorf("types: unknown operator %c", op)
}

// Key is a comparable tuple of up to four values, used by uniqueness hash
// tables and group-by maps. STRIP rules in practice use one or two unique
// columns; four is a generous fixed bound that keeps keys allocation-free.
type Key struct {
	n int
	v [4]Value
}

// MaxKeyWidth is the largest number of columns a Key can hold.
const MaxKeyWidth = 4

// MakeKey builds a Key from the given values. It panics if more than
// MaxKeyWidth values are supplied.
func MakeKey(vals ...Value) Key {
	if len(vals) > MaxKeyWidth {
		panic(fmt.Sprintf("types: key width %d exceeds %d", len(vals), MaxKeyWidth))
	}
	var k Key
	k.n = len(vals)
	copy(k.v[:], vals)
	return k
}

// Len reports the number of values in the key.
func (k Key) Len() int { return k.n }

// At returns the i-th value of the key.
func (k Key) At(i int) Value {
	if i < 0 || i >= k.n {
		panic("types: key index out of range")
	}
	return k.v[i]
}

// Values returns the key's values as a fresh slice.
func (k Key) Values() []Value {
	out := make([]Value, k.n)
	copy(out, k.v[:k.n])
	return out
}

// String renders the key for diagnostics.
func (k Key) String() string {
	s := "("
	for i := 0; i < k.n; i++ {
		if i > 0 {
			s += ","
		}
		s += k.v[i].String()
	}
	return s + ")"
}
