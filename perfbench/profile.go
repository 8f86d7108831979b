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

// cpuProfile is a CPU profile of part of a run, kept in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns each package group's share of the
// self samples, and the sample count.
func (p *cpuProfile) stop() (map[string]float64, int64, error) {
	pprof.StopCPUProfile()
	self, err := selfSamples(p.buf.Bytes())
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	var total int64
	groups := map[string]int64{}
	for fn, n := range self {
		groups[pkgGroup(fn)] += n
		total += n
	}
	shares := map[string]float64{}
	for g, n := range groups {
		shares[g] = float64(n) / float64(total)
	}
	return shares, total, nil
}

// addProfileLayers fills cpu_share.<pkg> and profile.samples.
func addProfileLayers(L map[string]float64, shares map[string]float64, samples int64) {
	for _, g := range tracedPkgs {
		L["cpu_share."+g] = shares[g]
	}
	L["profile.samples"] = float64(samples)
}

// pkgGroup maps a profiled function name to its cpu_share group: the
// repository package under internal/; the runtime; the socket and
// syscall layer of the standard library; sync (lock contention); time
// (clock reads); the benchmark's own code; anything else is "other".
func pkgGroup(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "packetmill/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		for _, g := range tracedPkgs {
			if g == rest {
				return g
			}
		}
		return "other"
	}
	path := fn
	if i := strings.IndexByte(fn[strings.LastIndexByte(fn, '/')+1:], '.'); i >= 0 {
		path = fn[:strings.LastIndexByte(fn, '/')+1+i]
	}
	switch {
	case path == "main":
		return "perfbench"
	case path == "sync", path == "time":
		return path
	case path == "runtime", strings.HasPrefix(path, "runtime/"), strings.HasPrefix(path, "internal/runtime/"):
		return "runtime"
	case path == "syscall", path == "internal/poll", path == "net", path == "os",
		strings.HasPrefix(path, "internal/syscall/"):
		return "syscall"
	}
	return "other"
}

// selfSamples decodes a gzipped pprof profile and sums each sample's
// first value onto its leaf function (the innermost inlined frame of the
// stack's first location): the function's self samples.
func selfSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFunc := map[uint64]uint64{}  // location id -> leaf function id
	type sample struct {
		loc uint64
		n   int64
	}
	var samples []sample
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s sample
			first := true
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1: // location_id
					if ids := varints(v, b); len(ids) > 0 && s.loc == 0 {
						s.loc = ids[0]
					}
				case 2: // value
					if vals := varints(v, b); len(vals) > 0 && first {
						s.n, first = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && fn == 0: // first Line: the innermost frame
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "?"
		if i, ok := funcName[locFunc[s.loc]]; ok && i < uint64(len(strs)) {
			name = strs[i]
		}
		out[name] += s.n
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling f with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(b []byte, f func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
		if err := f(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated integer field's values: the single varint
// v, or the packed run in data.
func varints(v uint64, data []byte) []uint64 {
	if data == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		out = append(out, x)
		data = data[n:]
	}
	return out
}
