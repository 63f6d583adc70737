package types

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindInt:    "INT",
		KindFloat:  "FLOAT",
		KindString: "TEXT",
		KindTime:   "TIME",
		Kind(99):   "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindFromName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Kind
	}{
		{"INT", KindInt}, {"integer", KindInt}, {"BIGINT", KindInt},
		{"FLOAT", KindFloat}, {"real", KindFloat}, {"DOUBLE", KindFloat},
		{"TEXT", KindString}, {"varchar", KindString}, {"STRING", KindString},
		{"TIME", KindTime}, {"timestamp", KindTime},
	} {
		got, err := KindFromName(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("KindFromName(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	if _, err := KindFromName("BLOB"); err == nil {
		t.Error("KindFromName(BLOB) succeeded, want error")
	}
}

func TestAccessors(t *testing.T) {
	if got := Int(42).Int(); got != 42 {
		t.Errorf("Int accessor = %d", got)
	}
	if got := Float(2.5).Float(); got != 2.5 {
		t.Errorf("Float accessor = %g", got)
	}
	if got := Int(7).Float(); got != 7.0 {
		t.Errorf("Int->Float = %g", got)
	}
	if got := Str("abc").Str(); got != "abc" {
		t.Errorf("Str accessor = %q", got)
	}
	if got := Time(123456).Micros(); got != 123456 {
		t.Errorf("Micros accessor = %d", got)
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull misreports")
	}
}

func TestAccessorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Int on string":    func() { Str("x").Int() },
		"Str on int":       func() { Int(1).Str() },
		"Float on string":  func() { Str("x").Float() },
		"Micros on int":    func() { Int(1).Micros() },
		"Key out of range": func() { MakeKey(Int(1)).At(3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Float(2.5), -1},
		{Int(2), Float(2.0), 0},
		{Float(2.5), Int(2), 1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Str("c"), Str("b"), 1},
		{Time(1), Time(2), -1},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
		{Int(1), Str("1"), -1}, // cross-kind order by kind
	} {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCompareNaN(t *testing.T) {
	nan := Float(math.NaN())
	if nan.Compare(nan) != 0 {
		t.Error("NaN should compare equal to itself for total ordering")
	}
	if nan.Compare(Float(0)) != -1 || Float(0).Compare(nan) != 1 {
		t.Error("NaN should sort below numbers")
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	vals := []Value{Null(), Int(-1), Int(0), Int(5), Float(-2.5), Float(5), Str(""), Str("z"), Time(0), Time(99)}
	for _, a := range vals {
		for _, b := range vals {
			if a.Compare(b) != -b.Compare(a) {
				t.Errorf("Compare(%v,%v) not antisymmetric", a, b)
			}
		}
	}
}

func TestArithmetic(t *testing.T) {
	for _, tc := range []struct {
		op   func(Value, Value) (Value, error)
		a, b Value
		want Value
	}{
		{Add, Int(2), Int(3), Int(5)},
		{Sub, Int(2), Int(3), Int(-1)},
		{Mul, Int(2), Int(3), Int(6)},
		{Div, Int(7), Int(2), Int(3)},
		{Add, Float(1.5), Int(1), Float(2.5)},
		{Sub, Float(5), Float(2.5), Float(2.5)},
		{Mul, Int(2), Float(0.5), Float(1)},
		{Div, Float(1), Float(4), Float(0.25)},
	} {
		got, err := tc.op(tc.a, tc.b)
		if err != nil || !got.Equal(tc.want) {
			t.Errorf("op(%v,%v) = %v, %v; want %v", tc.a, tc.b, got, err, tc.want)
		}
	}
}

func TestArithmeticErrors(t *testing.T) {
	if _, err := Add(Str("a"), Int(1)); err == nil {
		t.Error("Add(string,int) succeeded")
	}
	if _, err := Div(Int(1), Int(0)); err == nil {
		t.Error("integer division by zero succeeded")
	}
	if v, err := Div(Float(1), Float(0)); err != nil || !math.IsInf(v.Float(), 1) {
		t.Errorf("float division by zero = %v, %v; want +Inf", v, err)
	}
}

func TestValueString(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(-7), "-7"},
		{Float(2.5), "2.5"},
		{Str("hi"), "hi"},
		{Time(9), "@9us"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String(%#v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestKey(t *testing.T) {
	k := MakeKey(Str("IBM"), Int(3))
	if k.Len() != 2 {
		t.Fatalf("Len = %d", k.Len())
	}
	if !k.At(0).Equal(Str("IBM")) || !k.At(1).Equal(Int(3)) {
		t.Error("At returned wrong values")
	}
	if got := k.String(); got != "(IBM,3)" {
		t.Errorf("Key.String() = %q", got)
	}
	vals := k.Values()
	vals[0] = Int(0) // must not alias the key
	if !k.At(0).Equal(Str("IBM")) {
		t.Error("Values aliases key storage")
	}
	// Keys must be usable as map keys, with equal content colliding.
	m := map[Key]int{}
	m[MakeKey(Str("a"), Int(1))] = 1
	m[MakeKey(Str("a"), Int(1))] = 2
	if len(m) != 1 || m[MakeKey(Str("a"), Int(1))] != 2 {
		t.Error("equal keys did not collide in map")
	}
}

func TestKeyWidthPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for oversized key")
		}
	}()
	MakeKey(Int(1), Int(2), Int(3), Int(4), Int(5))
}

// Property: for any pair of int64s, Add/Sub are inverse and Compare is
// consistent with native ordering.
func TestQuickIntProperties(t *testing.T) {
	f := func(a, b int64) bool {
		sum, err := Add(Int(a), Int(b))
		if err != nil {
			return false
		}
		back, err := Sub(sum, Int(b))
		if err != nil || back.Int() != a {
			return false
		}
		want := 0
		if a < b {
			want = -1
		} else if a > b {
			want = 1
		}
		return Int(a).Compare(Int(b)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is transitive over a random triple of float values.
func TestQuickCompareTransitive(t *testing.T) {
	f := func(a, b, c float64) bool {
		va, vb, vc := Float(a), Float(b), Float(c)
		if va.Compare(vb) <= 0 && vb.Compare(vc) <= 0 {
			return va.Compare(vc) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Hash must agree with ==: whatever compares == hashes alike (the two
// zeros included), and for the table to be any use, values that differ in
// kind or payload should not collide.
func TestHashFollowsEquality(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []Value{
		Null(), Int(0), Int(1), Int(-1), Float(0), Float(negZero), Float(1), Float(1.5),
		Str(""), Str("a"), Str("b"), Time(0), Time(1),
	}
	for _, a := range vals {
		for _, b := range vals {
			ha, hb := a.Hash(7), b.Hash(7)
			if a == b && ha != hb {
				t.Errorf("%v == %v but hashes differ", a, b)
			}
			if a != b && ha == hb {
				t.Errorf("%v and %v collide", a, b)
			}
		}
	}
	if one := Int(1); one.Hash(1) == one.Hash(2) {
		t.Error("hash ignores the running value it is chained onto")
	}
}

// TestValueSize pins a field at 32 bytes: every record, slab row, group
// key and decoded wire row holds values by value, so a wider one is paid
// on every row every layer copies.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d bytes, want 32", got)
	}
}

// checkAgreement reports how a and b break the value system's one equality
// rule, or "" if they keep it: == implies Compare 0 and equal hashes; within
// a kind, Compare 0 implies ==; across kinds, only an INT and a FLOAT that
// hold the same number compare 0, and Compare is antisymmetric.
func checkAgreement(a, b Value) string {
	c := a.Compare(b)
	switch {
	case c != -b.Compare(a):
		return "Compare is not antisymmetric"
	case a == b && c != 0:
		return "== but Compare != 0"
	case a == b && a.Hash(7) != b.Hash(7):
		return "== but the hashes differ"
	case a.Kind() == b.Kind() && c == 0 && a != b:
		return "one kind, Compare 0, but not =="
	case a.Kind() != b.Kind() && a == b:
		return "== across kinds"
	case a.Kind() != b.Kind() && c == 0 && !(a.Numeric() && b.Numeric() && a.Float() == b.Float()):
		return "Compare 0 across kinds that are not the same number"
	}
	return ""
}

// TestValueAgreement runs checkAgreement over the values whose equality is
// special: the zeros, NaNs of several sign and payload bit patterns, the
// infinities, INT/FLOAT pairs holding one number, and INT/TIME pairs
// holding one payload.
func TestValueAgreement(t *testing.T) {
	nans := []float64{
		math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // signalling payload
		math.Float64frombits(0xfff8000000000000), // negative quiet
		math.Float64frombits(0xffffffffffffffff), // negative, every payload bit
	}
	vals := []Value{
		Null(), Float(0), Float(math.Copysign(0, -1)), Float(math.Inf(1)), Float(math.Inf(-1)),
		Int(0), Int(3), Float(3), Int(-7), Float(-7), Int(1 << 53), Float(1 << 53),
		Time(0), Time(3), Time(-7), Str(""), Str("3"), Float(2.5), Int(math.MinInt64), Float(-(1 << 63)),
	}
	for _, f := range nans {
		vals = append(vals, Float(f))
	}
	for _, a := range vals {
		for _, b := range vals {
			if msg := checkAgreement(a, b); msg != "" {
				t.Errorf("%#v, %#v: %s", a, b, msg)
			}
		}
	}
	// The rule the table relies on: all NaNs are one value, the zeros are
	// one value, and payloads of different kinds are different values.
	for _, f := range nans {
		if v := Float(f); v != Float(math.NaN()) || !math.IsNaN(v.Float()) {
			t.Errorf("Float(%#x) = %#v, want the canonical NaN", math.Float64bits(f), v)
		}
	}
	if z := Float(math.Copysign(0, -1)); z != Float(0) || math.Signbit(z.Float()) || z.String() != "0" {
		t.Errorf("Float(-0) = %#v (%s), want +0", z, z)
	}
	if Int(3) == Time(3) || Int(3).Compare(Time(3)) == 0 {
		t.Error("INT 3 and TIME 3 are one value")
	}
	if Int(3) == Float(3) || Int(3).Compare(Float(3)) != 0 {
		t.Error("INT 3 and FLOAT 3 must compare equal and differ under ==")
	}
}

// fuzzValue builds a value of kind k%6 (one past TIME is NULL again) from
// a payload word and a string, through the constructors.
func fuzzValue(k uint8, n uint64, s string) Value {
	switch k % 6 {
	case 1:
		return Int(int64(n))
	case 2:
		return Float(math.Float64frombits(n))
	case 3:
		return Str(s)
	case 4:
		return Time(int64(n))
	default:
		return Null()
	}
}

// FuzzValueAgreement checks checkAgreement over arbitrary kind and payload
// pairs, and that Float's fold keeps == the same as float equality, with
// every NaN equal.
func FuzzValueAgreement(f *testing.F) {
	negZero := math.Float64bits(math.Copysign(0, -1))
	nan := math.Float64bits(math.NaN())
	for _, seed := range []struct {
		ka, kb uint8
		na, nb uint64
	}{
		{2, 2, 0, negZero},
		{2, 2, nan, 0xfff0000000000001},
		{2, 2, math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1))},
		{1, 2, 3, math.Float64bits(3)},
		{1, 4, 3, 3},
		{1, 2, 1 << 63, math.Float64bits(-(1 << 63))},
	} {
		f.Add(seed.ka, seed.kb, seed.na, seed.nb, "", "")
	}
	f.Fuzz(func(t *testing.T, ka, kb uint8, na, nb uint64, sa, sb string) {
		a, b := fuzzValue(ka, na, sa), fuzzValue(kb, nb, sb)
		if msg := checkAgreement(a, b); msg != "" {
			t.Fatalf("%#v, %#v: %s", a, b, msg)
		}
		if ka%6 == 2 && kb%6 == 2 {
			x, y := math.Float64frombits(na), math.Float64frombits(nb)
			if same := x == y || x != x && y != y; (a == b) != same {
				t.Fatalf("Float(%v) == Float(%v) is %t", x, y, a == b)
			}
		}
	})
}
