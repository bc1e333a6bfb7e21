package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuPackages are the buckets of the flat CPU profile: the simulator's
// layers, the math and runtime packages, and everything else as "other".
var cpuPackages = []string{
	"sim", "device", "blk", "core", "ctl", "cgroup", "workload", "stats", "bio",
	"ring", "rng", "math", "fleet", "fanout", "scenario", "exp", "runtime", "other",
}

const modulePrefix = "github.com/iocost-sim/iocost/internal/"

// cpuBucket maps a fully qualified function name to its cpuPackages
// bucket.
func cpuBucket(fn string) string {
	// The package path ends at the first '.' after the last '/' outside
	// any type-parameter list.
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i]
	}
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, modulePrefix):
		name := strings.TrimPrefix(pkg, modulePrefix)
		for _, b := range cpuPackages {
			if b == name {
				return b
			}
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "math" || strings.HasPrefix(pkg, "math/"):
		return "math"
	}
	return "other"
}

// cpuProfile is a running CPU profile captured in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns the flat CPU time per bucket and the
// sample count it rests on.
func (p *cpuProfile) stop() (flat map[string]int64, samples int64, err error) {
	pprof.StopCPUProfile()
	return flatByBucket(p.buf.Bytes())
}

// flatByBucket decodes a gzipped pprof profile and sums each sample's CPU
// time into the bucket of its leaf function (the innermost inlined frame
// of the sample's first location), leaving out the calibration kernel.
func flatByBucket(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples   [][]uint64              // leaf-first location ids
		values    [][]int64
		valueType int = -1 // index of the cpu nanoseconds value
		types     [][2]int64
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			types = append(types, t)
		case 2: // sample
			var locs []uint64
			var vals []int64
			if err := eachField(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					locs = appendPacked(locs, w, v, bb)
				case 2:
					for _, x := range appendPacked(nil, w, v, bb) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, locs)
			values = append(values, vals)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n, _ int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line; inlined frames come innermost first
					return eachField(bb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	for i, t := range types {
		if t[0] >= 0 && int(t[0]) < len(strs) && strs[t[0]] == "cpu" {
			valueType = i
		}
	}
	if valueType < 0 {
		return nil, 0, errors.New("profile: no cpu sample type")
	}
	name := func(fn uint64) string {
		if s := funcName[fn]; s >= 0 && int(s) < len(strs) {
			return strs[s]
		}
		return ""
	}
	flat := map[string]int64{}
	var n int64
samples:
	for i, locs := range samples {
		if len(locs) == 0 || len(locFuncs[locs[0]]) == 0 || valueType >= len(values[i]) {
			continue
		}
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				if name(fn) == calibKernelName {
					continue samples
				}
			}
		}
		flat[cpuBucket(name(locFuncs[locs[0]][0]))] += values[i][valueType]
		n += values[i][0]
	}
	return flat, n, nil
}

// calibKernelName is the calibration kernel's function; its samples are
// left out of the profile, which then covers the benchmarked work only.
const calibKernelName = "main.calibKernel"

// appendPacked appends a repeated varint field's values, packed or not.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, k := binary.Uvarint(b)
		if k <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[k:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, k := binary.Uvarint(b)
		if k <= 0 {
			return errors.New("bad field key")
		}
		b = b[k:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, k = binary.Uvarint(b)
			if k <= 0 {
				return errors.New("bad varint")
			}
			b = b[k:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			n, k := binary.Uvarint(b)
			if k <= 0 || uint64(len(b)-k) < n {
				return errors.New("bad length")
			}
			data = b[k : k+int(n)]
			b = b[k+int(n):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
