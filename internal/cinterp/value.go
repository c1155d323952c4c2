// Package cinterp executes the C-subset programs of TunIO's workloads
// against the simulated I/O stack: an SPMD interpreter in three steps.
// Resolve: the program is lowered, once per Run, from the csrc tree to
// nodes — closures in which every variable is a slot of the call's frame or
// of the global table, every callee a function, every constant subtree a
// value (resolve.go). Run: each simulated MPI rank is taken through the
// nodes to the end of main, one rank after another, allocating a frame a
// call and logging its I/O and MPI calls (interp.go, builtins.go). Merge:
// the logs become the phases the ranks would have formed running side by
// side (merge.go). Collective HDF5 operations gather all live ranks'
// arguments (e.g. hyperslab selections) into one phase against the hdf5
// simulation, exactly as the tuner's Configuration Evaluation step runs a
// compiled I/O kernel job.
//
// Ranks need no scheduler because no call hands a rank anything another
// rank produced: a logged call returns 0 or a rank-local handle token,
// reads deliver no data and nothing reads the clock, so a rank's call
// sequence is a function of (program, rank, nprocs) alone. A new builtin
// must keep that true.
package cinterp

import (
	"fmt"
	"math"
	"strings"
)

// Kind tags a runtime value.
type Kind uint8

// Value kinds. The unexported ones are states of a variable's slot, never
// the result of an expression.
const (
	KNull Kind = iota
	KInt
	KFloat
	KString
	KArray
	KBuf // opaque allocation (malloc result); size only
	KRef // reference to a variable slot (& operator)

	kUnreadInts   // array declared without an initialiser list, unread: I is its length
	kUnreadFloats // the same, of doubles
	kUnset        // implicit declaration that no assignment has made yet
)

// Value is one runtime value: a kind, a word and a pointer, so an
// expression's result travels in three registers.
type Value struct {
	Kind Kind
	I    int64   // KInt; KFloat: the float's bits (F); KBuf: its size; an unread array's length
	obj  *object // KString, KArray, KRef
}

// object is what a string, an array or a reference is beyond that word.
type object struct {
	s   string
	arr []Value // shared by reference
	ref *Value
}

func (v Value) more() object {
	if v.obj == nil {
		return object{}
	}
	return *v.obj
}

// S is a KString's text, Arr a KArray's elements, Ref a KRef's target.
func (v Value) S() string    { return v.more().s }
func (v Value) Arr() []Value { return v.more().arr }
func (v Value) Ref() *Value  { return v.more().ref }

// unreadArray is an array declared without an initialiser list: a length
// and an element type until something reads it.
func unreadArray(n int64, isFloat bool) Value {
	if isFloat {
		return Value{Kind: kUnreadFloats, I: n}
	}
	return Value{Kind: kUnreadInts, I: n}
}

// zeroArray returns n zero elements of an int or float array.
func zeroArray(n int64, isFloat bool) []Value {
	arr := make([]Value, n)
	fillZero(arr, isFloat)
	return arr
}

func fillZero(arr []Value, isFloat bool) {
	zero := IntVal(0)
	if isFloat {
		zero = FloatVal(0)
	}
	for i := range arr {
		arr[i] = zero
	}
}

// load reads the variable slot v as an rvalue. An unread array gets its
// elements here, in the slot, so every copy of the value made from now on —
// an argument passed by value, a struct of handles — shares the one array.
func (v *Value) load() Value {
	if v.Kind == kUnreadInts || v.Kind == kUnreadFloats {
		*v = Value{Kind: KArray, obj: &object{arr: zeroArray(v.I, v.Kind == kUnreadFloats)}}
	}
	return *v
}

// IntVal builds an integer value.
func IntVal(i int64) Value { return Value{Kind: KInt, I: i} }

// FloatVal builds a float value.
func FloatVal(f float64) Value { return Value{Kind: KFloat, I: int64(math.Float64bits(f))} }

// F is a KFloat's value.
func (v Value) F() float64 { return math.Float64frombits(uint64(v.I)) }

// StrVal builds a string value.
func StrVal(s string) Value { return Value{Kind: KString, obj: &object{s: s}} }

// AsInt coerces to int64.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KInt:
		return v.I
	case KFloat:
		return int64(v.F())
	case KBuf:
		return v.I
	case KRef:
		if ref := v.Ref(); ref != nil {
			return ref.AsInt()
		}
	}
	return 0
}

// AsFloat coerces to float64. Buffers coerce to their size so C-style
// NULL checks (`ptr != 0`) behave.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KInt:
		return float64(v.I)
	case KFloat:
		return v.F()
	case KBuf:
		return float64(v.I)
	case KRef:
		if ref := v.Ref(); ref != nil {
			return ref.AsFloat()
		}
	}
	return 0
}

// Truthy reports C truthiness.
func (v Value) Truthy() bool {
	switch v.Kind {
	case KInt:
		return v.I != 0
	case KFloat:
		return v.F() != 0
	case KString:
		return v.S() != ""
	case KArray:
		return len(v.Arr()) > 0
	case KBuf:
		return true
	case KRef:
		return v.Ref() != nil
	}
	return false
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KFloat:
		return fmt.Sprintf("%g", v.F())
	case KString:
		return fmt.Sprintf("%q", v.S())
	case KArray:
		var parts []string
		for _, e := range v.Arr() {
			parts = append(parts, e.String())
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case KBuf:
		return fmt.Sprintf("buf(%d)", v.I)
	case KRef:
		return "&" + v.Ref().String()
	}
	return "null"
}

// typeSize returns sizeof for the supported C types.
func typeSize(typ string) int64 {
	base := strings.TrimSpace(typ)
	if strings.HasSuffix(base, "*") {
		return 8
	}
	switch base {
	case "char":
		return 1
	case "int", "float", "unsigned", "unsigned int", "int32_t":
		return 4
	case "double", "long", "long long", "size_t", "hsize_t", "hid_t",
		"hssize_t", "int64_t", "uint64_t", "unsigned long":
		return 8
	case "herr_t":
		return 4
	default:
		return 8
	}
}

// isFloatType reports whether a declared type holds floats.
func isFloatType(typ string) bool {
	return typ == "double" || typ == "float"
}
