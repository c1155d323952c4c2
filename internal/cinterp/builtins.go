package cinterp

import (
	"fmt"
	"math"

	"tunio/internal/csrc"
	"tunio/internal/hdf5"
)

// builtin dispatches library calls (HDF5, MPI, libc, and the discovery
// transforms' helpers).
func (in *interp) builtin(x *csrc.CallExpr, sc *scope) (Value, error) {
	evalArgs := func() ([]Value, error) {
		args := make([]Value, len(x.Args))
		for i, a := range x.Args {
			v, err := in.eval(a, sc)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return args, nil
	}

	switch x.Fun {
	// ---- MPI ----
	case "MPI_Init", "MPI_Finalize", "MPI_Barrier":
		return in.collective(request{op: x.Fun}, false)

	case "MPI_Comm_rank", "MPI_Comm_size":
		args, err := evalArgs()
		if err != nil {
			return Value{}, err
		}
		if len(args) != 2 || args[1].Kind != KRef {
			return Value{}, fmt.Errorf("cinterp: %s needs (comm, &var)", x.Fun)
		}
		out := int64(in.rank)
		if x.Fun == "MPI_Comm_size" {
			out = int64(in.nprocs)
		}
		*args[1].Ref = IntVal(out)
		return IntVal(0), nil

	// ---- HDF5 file ----
	case "H5Fcreate", "H5Fopen":
		args, err := evalArgs()
		if err != nil {
			return Value{}, err
		}
		if len(args) < 1 || args[0].Kind != KString {
			return Value{}, fmt.Errorf("cinterp: %s needs a path string", x.Fun)
		}
		return in.collective(request{op: x.Fun, name: args[0].S}, true)

	case "H5Fclose":
		args, err := evalArgs()
		if err != nil {
			return Value{}, err
		}
		return in.collective(request{op: "H5Fclose", id: args[0].AsInt()}, false)

	// ---- dataspaces (rank-local) ----
	case "H5Screate_simple":
		args, err := evalArgs()
		if err != nil {
			return Value{}, err
		}
		if len(args) < 2 {
			return Value{}, fmt.Errorf("cinterp: H5Screate_simple needs (ndims, dims, maxdims)")
		}
		dims, err := intSlice(args[1], int(args[0].AsInt()))
		if err != nil {
			return Value{}, err
		}
		id := in.allocID()
		in.spaces[id] = &spaceObj{dims: dims}
		return IntVal(id), nil

	case "H5Sselect_hyperslab":
		args, err := evalArgs()
		if err != nil {
			return Value{}, err
		}
		if len(args) < 5 {
			return Value{}, fmt.Errorf("cinterp: H5Sselect_hyperslab needs 5+ args")
		}
		sp := in.spaces[args[0].AsInt()]
		if sp == nil {
			return Value{}, fmt.Errorf("cinterp: H5Sselect_hyperslab on invalid space")
		}
		start, err := intSlice(args[2], len(sp.dims))
		if err != nil {
			return Value{}, err
		}
		if args[3].Kind == KArray {
			return Value{}, fmt.Errorf("cinterp: strided hyperslab selections are not supported")
		}
		count, err := intSlice(args[4], len(sp.dims))
		if err != nil {
			return Value{}, err
		}
		sp.start, sp.count = start, count
		return IntVal(0), nil

	case "H5Sclose":
		args, err := evalArgs()
		if err != nil {
			return Value{}, err
		}
		delete(in.spaces, args[0].AsInt())
		return IntVal(0), nil

	// ---- property lists (rank-local; only chunking is modeled) ----
	case "H5Pcreate":
		if _, err := evalArgs(); err != nil {
			return Value{}, err
		}
		id := in.allocID()
		in.plists[id] = &plistObj{}
		return IntVal(id), nil

	case "H5Pset_chunk":
		args, err := evalArgs()
		if err != nil {
			return Value{}, err
		}
		pl := in.plists[args[0].AsInt()]
		if pl == nil {
			return Value{}, fmt.Errorf("cinterp: H5Pset_chunk on invalid plist")
		}
		chunk, err := intSlice(args[2], int(args[1].AsInt()))
		if err != nil {
			return Value{}, err
		}
		pl.chunk = chunk
		return IntVal(0), nil

	case "H5Pclose":
		args, err := evalArgs()
		if err != nil {
			return Value{}, err
		}
		delete(in.plists, args[0].AsInt())
		return IntVal(0), nil

	// ---- datasets ----
	case "H5Dcreate":
		args, err := evalArgs()
		if err != nil {
			return Value{}, err
		}
		if len(args) < 4 {
			return Value{}, fmt.Errorf("cinterp: H5Dcreate needs (file, name, type, space, ...)")
		}
		sp := in.spaces[args[3].AsInt()]
		if sp == nil {
			return Value{}, fmt.Errorf("cinterp: H5Dcreate with invalid dataspace")
		}
		var chunk []int64
		if len(args) >= 6 {
			if pl := in.plists[args[5].AsInt()]; pl != nil && pl.chunk != nil {
				chunk = pl.chunk
			}
		}
		// dims and chunk alias the rank's space and plist: both replace
		// their slices, never write into them, so the log keeps what it saw
		return in.collective(request{
			op: "H5Dcreate", id: args[0].AsInt(), name: args[1].S, dims: sp.dims, chunk: chunk,
		}, true)

	case "H5Dopen":
		args, err := evalArgs()
		if err != nil {
			return Value{}, err
		}
		return in.collective(request{op: "H5Dopen", id: args[0].AsInt(), name: args[1].S}, true)

	case "H5Dwrite", "H5Dread":
		args, err := evalArgs()
		if err != nil {
			return Value{}, err
		}
		if len(args) < 4 {
			return Value{}, fmt.Errorf("cinterp: %s needs (ds, memtype, memspace, filespace, ...)", x.Fun)
		}
		slab := hdf5.Slab{Rank: in.rank}
		if spID := args[3].AsInt(); spID != 0 {
			sp := in.spaces[spID]
			if sp == nil {
				return Value{}, fmt.Errorf("cinterp: %s with invalid file space", x.Fun)
			}
			if sp.count != nil {
				slab.Start = append([]int64(nil), sp.start...)
				slab.Count = append([]int64(nil), sp.count...)
			} else {
				slab.Start = make([]int64, len(sp.dims))
				slab.Count = append([]int64(nil), sp.dims...)
			}
		} else {
			return Value{}, fmt.Errorf("cinterp: %s with H5S_ALL file space requires a selection", x.Fun)
		}
		return in.collective(request{op: x.Fun, id: args[0].AsInt(), slab: slab}, false)

	case "H5Dclose":
		args, err := evalArgs()
		if err != nil {
			return Value{}, err
		}
		return in.collective(request{op: "H5Dclose", id: args[0].AsInt()}, false)

	// ---- groups & attributes (metadata objects) ----
	case "H5Gcreate":
		args, err := evalArgs()
		if err != nil {
			return Value{}, err
		}
		if len(args) < 2 || args[1].Kind != KString {
			return Value{}, fmt.Errorf("cinterp: H5Gcreate needs (loc, name, ...)")
		}
		return in.collective(request{op: "H5Gcreate", id: args[0].AsInt(), name: args[1].S}, true)

	case "H5Gclose":
		_, err := evalArgs()
		return IntVal(0), err

	case "H5Acreate", "H5Awrite":
		args, err := evalArgs()
		if err != nil {
			return Value{}, err
		}
		if x.Fun == "H5Awrite" {
			// the attribute's metadata cost was charged at creation
			return IntVal(0), nil
		}
		if len(args) < 2 || args[1].Kind != KString {
			return Value{}, fmt.Errorf("cinterp: H5Acreate needs (loc, name, ...)")
		}
		return in.collective(request{op: "H5Acreate", id: args[0].AsInt(), name: args[1].S}, true)

	case "H5Aclose":
		_, err := evalArgs()
		return IntVal(0), err

	// ---- compute / libc ----
	case "compute_flops":
		args, err := evalArgs()
		if err != nil {
			return Value{}, err
		}
		fl := args[0].AsFloat()
		if fl < 0 {
			return Value{}, fmt.Errorf("cinterp: compute_flops(%v)", fl)
		}
		return in.collective(request{op: "compute", flops: fl}, false)

	case "malloc", "calloc":
		args, err := evalArgs()
		if err != nil {
			return Value{}, err
		}
		size := args[0].AsInt()
		if x.Fun == "calloc" && len(args) > 1 {
			size *= args[1].AsInt()
		}
		return Value{Kind: KBuf, Size: size}, nil

	case "free":
		_, err := evalArgs()
		return IntVal(0), err

	case "printf":
		args, err := evalArgs()
		if err != nil {
			return Value{}, err
		}
		if in.rank == 0 && len(args) > 0 && args[0].Kind == KString {
			in.output = append(in.output, args[0].S)
		}
		return IntVal(0), nil

	case "sprintf", "snprintf":
		// the destination is written, not read: resolve it as an lvalue
		fmtIdx := 1
		if x.Fun == "snprintf" {
			fmtIdx = 2
		}
		if len(x.Args) <= fmtIdx {
			return Value{}, fmt.Errorf("cinterp: %s needs (dst, ..., format, args)", x.Fun)
		}
		dst, err := in.lvalue(x.Args[0], sc)
		if err != nil {
			return Value{}, err
		}
		rest := make([]Value, 0, len(x.Args)-1)
		for _, a := range x.Args[1:] {
			v, err := in.eval(a, sc)
			if err != nil {
				return Value{}, err
			}
			rest = append(rest, v)
		}
		format := rest[fmtIdx-1]
		if format.Kind != KString {
			return Value{}, fmt.Errorf("cinterp: %s format must be a string", x.Fun)
		}
		s, err := formatC(format.S, rest[fmtIdx:])
		if err != nil {
			return Value{}, fmt.Errorf("cinterp: %s: %w", x.Fun, err)
		}
		full := int64(len(s)) // C returns the untruncated length
		if x.Fun == "snprintf" {
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

	case "strncpy":
		if len(x.Args) < 3 {
			return Value{}, fmt.Errorf("cinterp: strncpy needs (dst, src, n)")
		}
		dst, err := in.lvalue(x.Args[0], sc)
		if err != nil {
			return Value{}, err
		}
		src, err := in.eval(x.Args[1], sc)
		if err != nil {
			return Value{}, err
		}
		nv, err := in.eval(x.Args[2], sc)
		if err != nil {
			return Value{}, err
		}
		if src.Kind != KString {
			return Value{}, fmt.Errorf("cinterp: strncpy source must be a string")
		}
		s := src.S
		if n := nv.AsInt(); n < 0 {
			return Value{}, fmt.Errorf("cinterp: strncpy negative size")
		} else if int64(len(s)) > n {
			s = s[:n] // truncating copy: first n bytes, no terminator in C
		}
		*dst = StrVal(s)
		return *dst, nil

	case "strcpy", "strcat":
		if len(x.Args) < 2 {
			return Value{}, fmt.Errorf("cinterp: %s needs (dst, src)", x.Fun)
		}
		dst, err := in.lvalue(x.Args[0], sc)
		if err != nil {
			return Value{}, err
		}
		src, err := in.eval(x.Args[1], sc)
		if err != nil {
			return Value{}, err
		}
		if src.Kind != KString {
			return Value{}, fmt.Errorf("cinterp: %s source must be a string", x.Fun)
		}
		s := src.S
		if x.Fun == "strcat" && dst.Kind == KString {
			s = dst.S + s
		}
		*dst = StrVal(s)
		return *dst, nil

	case "dsname":
		// helper for SPMD sources that create datasets in loops: derive a
		// deterministic dataset name from an integer id
		args, err := evalArgs()
		if err != nil {
			return Value{}, err
		}
		return StrVal(fmt.Sprintf("ds%05d", args[0].AsInt())), nil

	case "sqrt":
		args, err := evalArgs()
		if err != nil {
			return Value{}, err
		}
		return FloatVal(math.Sqrt(args[0].AsFloat())), nil

	case "exit":
		if _, err := evalArgs(); err != nil {
			return Value{}, err
		}
		return Value{}, exitSignal{}

	case csrc.LoopReduceBuiltin:
		args, err := evalArgs()
		if err != nil {
			return Value{}, err
		}
		if len(args) != 2 {
			return Value{}, fmt.Errorf("cinterp: %s needs (n, fraction)", csrc.LoopReduceBuiltin)
		}
		n := args[0].AsInt()
		frac := args[1].AsFloat()
		reduced := int64(math.Floor(float64(n) * frac))
		if reduced < 1 {
			reduced = 1
		}
		if reduced > n {
			reduced = n
		}
		in.loopOrig += n
		in.loopReduced += reduced
		return IntVal(reduced), nil

	default:
		// unknown H5Pset_* tuning calls are accepted and ignored: the
		// stack configuration is injected by the tuner, not the source
		if len(x.Fun) > 7 && x.Fun[:7] == "H5Pset_" {
			_, err := evalArgs()
			return IntVal(0), err
		}
		return Value{}, fmt.Errorf("cinterp: unknown function %q", x.Fun)
	}
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
			b = append(b, fmt.Sprintf(string(append(spec, 's')), args[ai].S)...)
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

// intSlice extracts n ints from an array value.
func intSlice(v Value, n int) ([]int64, error) {
	if v.Kind != KArray {
		return nil, fmt.Errorf("cinterp: expected array argument, got %s", v)
	}
	if n <= 0 || n > len(v.Arr) {
		n = len(v.Arr)
	}
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		out[i] = v.Arr[i].AsInt()
	}
	return out, nil
}
