package cinterp

import (
	"fmt"
	"math"
	"strings"

	"tunio/internal/csrc"
	"tunio/internal/hdf5"
)

// builtin is a library call (HDF5, MPI, libc, or a helper of the discovery
// transforms) bound to a call site. fn gets the evaluated arguments, which
// sit on the rank's operand stack and are gone when it returns.
type builtin struct {
	fn     func(in *interp, dst *Value, args []Value) (Value, error)
	noArgs bool // the arguments are not evaluated
	// usage, when set, makes the first argument a destination (dst), written
	// and not read, so resolved as an lvalue: a call needs nargs arguments,
	// failing with usage if it has fewer, and evaluates no more than those
	// unless it is variadic.
	usage    string
	nargs    int
	variadic bool
}

// bind returns the builtin that a call of name reaches, if there is one.
func bind(name string) (b builtin, ok bool) {
	switch name {
	// ---- MPI ----
	case "MPI_Init", "MPI_Finalize", "MPI_Barrier":
		b.noArgs = true
		b.fn = func(in *interp, _ *Value, _ []Value) (Value, error) {
			return in.collective(request{op: name}, false)
		}
	case "MPI_Comm_rank", "MPI_Comm_size":
		b.fn = func(in *interp, _ *Value, args []Value) (Value, error) {
			if len(args) != 2 || args[1].Kind != KRef {
				return Value{}, fmt.Errorf("cinterp: %s needs (comm, &var)", name)
			}
			out := int64(in.rank)
			if name == "MPI_Comm_size" {
				out = int64(in.nprocs)
			}
			*args[1].Ref() = IntVal(out)
			return IntVal(0), nil
		}

	// ---- HDF5 files, datasets, groups, attributes: logged for the merge ----
	case "H5Fcreate", "H5Fopen":
		b.fn = func(in *interp, _ *Value, args []Value) (Value, error) {
			if len(args) < 1 || args[0].Kind != KString {
				return Value{}, fmt.Errorf("cinterp: %s needs a path string", name)
			}
			return in.collective(request{op: name, name: args[0].S()}, true)
		}
	case "H5Fclose", "H5Dclose":
		b.fn = func(in *interp, _ *Value, args []Value) (Value, error) {
			return in.collective(request{op: name, id: args[0].AsInt()}, false)
		}
	case "H5Dcreate":
		b.fn = func(in *interp, _ *Value, args []Value) (Value, error) {
			if len(args) < 4 {
				return Value{}, fmt.Errorf("cinterp: H5Dcreate needs (file, name, type, space, ...)")
			}
			sp, ok := in.spaces[args[3].AsInt()]
			if !ok {
				return Value{}, fmt.Errorf("cinterp: H5Dcreate with invalid dataspace")
			}
			var chunk []int64
			if len(args) >= 6 {
				chunk = in.plists[args[5].AsInt()].chunk
			}
			// dims and chunk alias the rank's space and plist: both replace
			// their slices, never write into them, so the log keeps what it saw
			return in.collective(request{
				op: "H5Dcreate", id: args[0].AsInt(), name: args[1].S(), dims: sp.dims, chunk: chunk,
			}, true)
		}
	case "H5Dopen":
		b.fn = func(in *interp, _ *Value, args []Value) (Value, error) {
			return in.collective(request{op: "H5Dopen", id: args[0].AsInt(), name: args[1].S()}, true)
		}
	case "H5Dwrite", "H5Dread":
		b.fn = func(in *interp, _ *Value, args []Value) (Value, error) {
			if len(args) < 4 {
				return Value{}, fmt.Errorf("cinterp: %s needs (ds, memtype, memspace, filespace, ...)", name)
			}
			if args[3].AsInt() == 0 {
				return Value{}, fmt.Errorf("cinterp: %s with H5S_ALL file space requires a selection", name)
			}
			sp, ok := in.spaces[args[3].AsInt()]
			if !ok {
				return Value{}, fmt.Errorf("cinterp: %s with invalid file space", name)
			}
			// as H5Dcreate's dims: a selection is replaced, never written into
			slab := hdf5.Slab{Rank: in.rank, Start: sp.start, Count: sp.count}
			if sp.count == nil {
				slab.Start, slab.Count = make([]int64, len(sp.dims)), sp.dims
			}
			return in.collective(request{op: name, id: args[0].AsInt(), slab: slab}, false)
		}
	case "H5Gcreate", "H5Acreate": // metadata objects under a location
		b.fn = func(in *interp, _ *Value, args []Value) (Value, error) {
			if len(args) < 2 || args[1].Kind != KString {
				return Value{}, fmt.Errorf("cinterp: %s needs (loc, name, ...)", name)
			}
			return in.collective(request{op: name, id: args[0].AsInt(), name: args[1].S()}, true)
		}

	// ---- dataspaces and property lists: rank-local; of a list only chunking is modeled ----
	case "H5Screate_simple":
		b.fn = func(in *interp, _ *Value, args []Value) (Value, error) {
			if len(args) < 2 {
				return Value{}, fmt.Errorf("cinterp: H5Screate_simple needs (ndims, dims, maxdims)")
			}
			dims, err := in.intSlice(args[1], int(args[0].AsInt()))
			if err != nil {
				return Value{}, err
			}
			id := in.allocID()
			in.spaces[id] = spaceObj{dims: dims}
			return IntVal(id), nil
		}
	case "H5Sselect_hyperslab":
		b.fn = func(in *interp, _ *Value, args []Value) (Value, error) {
			if len(args) < 5 {
				return Value{}, fmt.Errorf("cinterp: H5Sselect_hyperslab needs 5+ args")
			}
			sp, ok := in.spaces[args[0].AsInt()]
			if !ok {
				return Value{}, fmt.Errorf("cinterp: H5Sselect_hyperslab on invalid space")
			}
			start, err := in.intSlice(args[2], len(sp.dims))
			if err != nil {
				return Value{}, err
			}
			if args[3].Kind == KArray {
				return Value{}, fmt.Errorf("cinterp: strided hyperslab selections are not supported")
			}
			count, err := in.intSlice(args[4], len(sp.dims))
			if err != nil {
				return Value{}, err
			}
			in.spaces[args[0].AsInt()] = spaceObj{sp.dims, start, count}
			return IntVal(0), nil
		}
	case "H5Sclose":
		b.fn = func(in *interp, _ *Value, args []Value) (Value, error) {
			delete(in.spaces, args[0].AsInt())
			return IntVal(0), nil
		}
	case "H5Pcreate":
		b.fn = func(in *interp, _ *Value, _ []Value) (Value, error) {
			id := in.allocID()
			in.plists[id] = plistObj{}
			return IntVal(id), nil
		}
	case "H5Pset_chunk":
		b.fn = func(in *interp, _ *Value, args []Value) (Value, error) {
			if _, ok := in.plists[args[0].AsInt()]; !ok {
				return Value{}, fmt.Errorf("cinterp: H5Pset_chunk on invalid plist")
			}
			chunk, err := in.intSlice(args[2], int(args[1].AsInt()))
			if err != nil {
				return Value{}, err
			}
			in.plists[args[0].AsInt()] = plistObj{chunk}
			return IntVal(0), nil
		}
	case "H5Pclose":
		b.fn = func(in *interp, _ *Value, args []Value) (Value, error) {
			delete(in.plists, args[0].AsInt())
			return IntVal(0), nil
		}

	// ---- compute / libc ----
	case "compute_flops":
		b.fn = func(in *interp, _ *Value, args []Value) (Value, error) {
			fl := args[0].AsFloat()
			if fl < 0 || math.IsNaN(fl) || math.IsInf(fl, 0) {
				return Value{}, fmt.Errorf("cinterp: compute_flops(%v)", fl)
			}
			return in.collective(request{op: "compute", flops: fl}, false)
		}
	case "malloc", "calloc":
		b.fn = func(_ *interp, _ *Value, args []Value) (Value, error) {
			size := args[0].AsInt()
			if name == "calloc" && len(args) > 1 {
				size *= args[1].AsInt()
			}
			return Value{Kind: KBuf, I: size}, nil
		}
	case "printf":
		b.fn = func(in *interp, _ *Value, args []Value) (Value, error) {
			if in.rank == 0 && len(args) > 0 && args[0].Kind == KString {
				in.output = append(in.output, args[0].S())
			}
			return IntVal(0), nil
		}
	case "sprintf", "snprintf":
		fmtIdx := 1 // where the format is among what follows dst
		if name == "snprintf" {
			fmtIdx = 2
		}
		b.usage, b.nargs, b.variadic = "(dst, ..., format, args)", fmtIdx+1, true
		b.fn = func(_ *interp, dst *Value, rest []Value) (Value, error) {
			format := rest[fmtIdx-1]
			if format.Kind != KString {
				return Value{}, fmt.Errorf("cinterp: %s format must be a string", name)
			}
			s, err := formatC(format.S(), rest[fmtIdx:])
			if err != nil {
				return Value{}, fmt.Errorf("cinterp: %s: %w", name, err)
			}
			full := int64(len(s)) // C returns the untruncated length
			if name == "snprintf" {
				n := rest[0].AsInt()
				if n <= 0 {
					return IntVal(full), nil // nothing written
				}
				if full >= n {
					s = s[:n-1]
				}
			}
			*dst = StrVal(s)
			return IntVal(full), nil
		}
	case "strncpy":
		b.usage, b.nargs = "(dst, src, n)", 3
		b.fn = func(_ *interp, dst *Value, rest []Value) (Value, error) {
			if rest[0].Kind != KString {
				return Value{}, fmt.Errorf("cinterp: strncpy source must be a string")
			}
			s := rest[0].S()
			if n := rest[1].AsInt(); n < 0 {
				return Value{}, fmt.Errorf("cinterp: strncpy negative size")
			} else if int64(len(s)) > n {
				s = s[:n] // truncating copy: first n bytes, no terminator in C
			}
			*dst = StrVal(s)
			return *dst, nil
		}
	case "strcpy", "strcat":
		b.usage, b.nargs = "(dst, src)", 2
		b.fn = func(_ *interp, dst *Value, rest []Value) (Value, error) {
			if rest[0].Kind != KString {
				return Value{}, fmt.Errorf("cinterp: %s source must be a string", name)
			}
			s := rest[0].S()
			if name == "strcat" && dst.Kind == KString {
				s = dst.S() + s
			}
			*dst = StrVal(s)
			return *dst, nil
		}
	case "dsname":
		// helper for SPMD sources that create datasets in loops: derive a
		// deterministic dataset name from an integer id
		b.fn = func(_ *interp, _ *Value, args []Value) (Value, error) {
			return StrVal(fmt.Sprintf("ds%05d", args[0].AsInt())), nil
		}
	case "sqrt":
		b.fn = func(_ *interp, _ *Value, args []Value) (Value, error) {
			return FloatVal(math.Sqrt(args[0].AsFloat())), nil
		}
	case "exit":
		b.fn = func(*interp, *Value, []Value) (Value, error) { return Value{}, errExit }
	case csrc.LoopReduceBuiltin:
		b.fn = func(in *interp, _ *Value, args []Value) (Value, error) {
			if len(args) != 2 {
				return Value{}, fmt.Errorf("cinterp: %s needs (n, fraction)", csrc.LoopReduceBuiltin)
			}
			n := args[0].AsInt()
			reduced := int64(math.Floor(float64(n) * args[1].AsFloat()))
			if reduced < 1 {
				reduced = 1
			}
			if reduced > n {
				reduced = n
			}
			in.loopOrig += n
			in.loopReduced += reduced
			return IntVal(reduced), nil
		}
	default:
		// H5Awrite: the attribute's metadata cost was charged at creation.
		// Unknown H5Pset_* tuning calls are accepted and ignored: the stack
		// configuration is injected by the tuner, not the source.
		switch name {
		case "H5Gclose", "H5Awrite", "H5Aclose", "free":
		default:
			if !strings.HasPrefix(name, "H5Pset_") || len(name) == 7 {
				return b, false
			}
		}
		b.fn = func(*interp, *Value, []Value) (Value, error) { return IntVal(0), nil }
	}
	return b, true
}

// formatC renders a C format string over interpreter values. Supported:
// %s, %d/%i/%u/%x (with optional l/z length modifiers), %f/%g, and %%,
// each with optional 0/- flags, width, and precision (%05d zero-pads a
// rank stamp exactly as libc does). `*` widths are rejected.
func formatC(format string, args []Value) (string, error) {
	var b []byte
	ai := 0
	for i := 0; i < len(format); i++ {
		ch := format[i]
		if ch != '%' {
			b = append(b, ch)
			continue
		}
		i++
		if i >= len(format) {
			return "", fmt.Errorf("format ends with %%")
		}
		if format[i] == '%' {
			b = append(b, '%')
			continue
		}
		spec := []byte{'%'}
		for i < len(format) && (format[i] == '0' || format[i] == '-' ||
			(format[i] >= '1' && format[i] <= '9')) {
			spec = append(spec, format[i])
			i++
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				spec = append(spec, format[i])
				i++
			}
		}
		if i < len(format) && format[i] == '.' {
			spec = append(spec, '.')
			i++
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				spec = append(spec, format[i])
				i++
			}
		}
		if i < len(format) && format[i] == '*' {
			return "", fmt.Errorf("unsupported * width")
		}
		for i < len(format) && (format[i] == 'l' || format[i] == 'z') {
			i++
		}
		if i >= len(format) {
			return "", fmt.Errorf("format ends inside a verb")
		}
		if ai >= len(args) {
			return "", fmt.Errorf("missing argument for %%%c", format[i])
		}
		switch format[i] {
		case 's':
			if args[ai].Kind != KString {
				return "", fmt.Errorf("%%s argument is not a string")
			}
			b = append(b, fmt.Sprintf(string(append(spec, 's')), args[ai].S())...)
		case 'd', 'i', 'u':
			b = append(b, fmt.Sprintf(string(append(spec, 'd')), args[ai].AsInt())...)
		case 'x':
			b = append(b, fmt.Sprintf(string(append(spec, 'x')), args[ai].AsInt())...)
		case 'f':
			b = append(b, fmt.Sprintf(string(append(spec, 'f')), args[ai].AsFloat())...)
		case 'g':
			b = append(b, fmt.Sprintf(string(append(spec, 'g')), args[ai].AsFloat())...)
		default:
			return "", fmt.Errorf("unsupported format verb %%%c", format[i])
		}
		ai++
	}
	return string(b), nil
}

// intSlice extracts n ints from an array value. What it returns is written
// here and never again: the rank's spaces, lists and log share it.
func (in *interp) intSlice(v Value, n int) ([]int64, error) {
	if v.Kind != KArray {
		return nil, fmt.Errorf("cinterp: expected array argument, got %s", v)
	}
	arr := v.Arr()
	if n <= 0 || n > len(arr) {
		n = len(arr)
	}
	if len(in.ints) < n {
		in.ints = make([]int64, n+64)
	}
	out := in.ints[:n:n]
	in.ints = in.ints[n:]
	for i := 0; i < n; i++ {
		out[i] = arr[i].AsInt()
	}
	return out, nil
}
