// Package cinterp executes the C-subset programs of TunIO's workloads
// against the simulated I/O stack: an SPMD tree-walking interpreter that
// runs the program once per simulated MPI rank, one rank after another,
// logging each rank's I/O and MPI calls, and then merges the logs into the
// phases the ranks would have formed running side by side. Collective HDF5
// operations gather all live ranks' arguments (e.g. hyperslab selections)
// into one phase against the hdf5 simulation, exactly as the tuner's
// Configuration Evaluation step runs a compiled I/O kernel job.
//
// Ranks need no scheduler because no call hands a rank anything another
// rank produced: a logged call returns 0 or a rank-local handle token,
// reads deliver no data and nothing reads the clock, so a rank's call
// sequence is a function of (program, rank, nprocs) alone. A new builtin
// must keep that true.
package cinterp

import (
	"fmt"
	"strings"
)

// Kind tags a runtime value.
type Kind int

// Value kinds.
const (
	KNull Kind = iota
	KInt
	KFloat
	KString
	KArray
	KBuf // opaque allocation (malloc result); size only
	KRef // reference to a variable slot (& operator)
)

// Value is one runtime value.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	Arr  []Value // shared by reference; nil with Size > 0 while unread (load)
	Size int64   // KBuf allocation size; length of an unread KArray
	Ref  *Value  // KRef target
}

// unreadArray is an array declared without an initialiser list: a length
// (and, in I, whether its elements are floats) until something reads it.
func unreadArray(n int64, isFloat bool) Value {
	v := Value{Kind: KArray, Size: n}
	if isFloat {
		v.I = 1
	}
	return v
}

// zeroArray returns n zero elements of an int or float array.
func zeroArray(n int64, isFloat bool) []Value {
	arr := make([]Value, n)
	zero := IntVal(0)
	if isFloat {
		zero = FloatVal(0)
	}
	for i := range arr {
		arr[i] = zero
	}
	return arr
}

// load reads the variable slot v as an rvalue. An unread array gets its
// elements here, in the slot, so every copy of the value made from now on —
// an argument passed by value, a struct of handles — shares the one array.
func (v *Value) load() Value {
	if v.Kind == KArray && v.Arr == nil && v.Size > 0 {
		v.Arr = zeroArray(v.Size, v.I != 0)
		v.Size, v.I = 0, 0
	}
	return *v
}

// IntVal builds an integer value.
func IntVal(i int64) Value { return Value{Kind: KInt, I: i} }

// FloatVal builds a float value.
func FloatVal(f float64) Value { return Value{Kind: KFloat, F: f} }

// StrVal builds a string value.
func StrVal(s string) Value { return Value{Kind: KString, S: s} }

// AsInt coerces to int64.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KInt:
		return v.I
	case KFloat:
		return int64(v.F)
	case KBuf:
		return v.Size
	case KRef:
		if v.Ref != nil {
			return v.Ref.AsInt()
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
		return v.F
	case KBuf:
		return float64(v.Size)
	case KRef:
		if v.Ref != nil {
			return v.Ref.AsFloat()
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
		return v.F != 0
	case KString:
		return v.S != ""
	case KArray:
		return len(v.Arr) > 0
	case KBuf:
		return true
	case KRef:
		return v.Ref != nil
	}
	return false
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KFloat:
		return fmt.Sprintf("%g", v.F)
	case KString:
		return fmt.Sprintf("%q", v.S)
	case KArray:
		var parts []string
		for _, e := range v.Arr {
			parts = append(parts, e.String())
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case KBuf:
		return fmt.Sprintf("buf(%d)", v.Size)
	case KRef:
		return "&" + v.Ref.String()
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
