package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is attributed to layers without the pprof tool: the
// few profile.proto fields needed (samples, locations, functions and the
// string table) are decoded here by hand.

// layerOfPackage maps a package path to the layer that owns its CPU
// time. Packages missing from the map either belong to no layer (the
// rest of the repository) or are standard-library helpers whose time is
// charged to their nearest caller that has a layer.
var layerOfPackage = map[string]string{
	"repro/internal/sim":     "sim",
	"repro/internal/mpisim":  "mpisim",
	"repro/internal/memband": "memband",
	"repro/internal/noise":   "noise",
	"repro/internal/rng":     "noise",
	"repro/internal/trace":   "trace",
	"repro/internal/wave":    "wave",
	"repro/internal/serve":   "serve",
	"repro/internal/spec":    "spec",
	"repro/internal/journal": "journal",
	"net/http":               "http",
	"net/http/httptest":      "http",
	"net/http/internal":      "http",
	"net/textproto":          "http",
	"net":                    "http",
	"mime":                   "http",
}

// cpuLayers lists the layers a profile is split into, in print order;
// "other" takes every sample no layer claims.
var cpuLayers = []string{"sim", "mpisim", "memband", "noise", "trace", "wave", "gc", "serve", "spec", "journal", "http", "other"}

// gcPrefixes name the runtime functions that do garbage collection,
// write barriers or allocation.
var gcPrefixes = []string{
	"runtime.gc", "runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.growslice", "runtime.makemap",
	"runtime.scan", "runtime.greyobject", "runtime.markroot", "runtime.markBits",
	"runtime.findObject", "runtime.heapBits", "runtime.typePointers",
	"runtime.wbBuf", "runtime.bulkBarrier", "runtime.nextFreeFast",
	"runtime.sweepone", "runtime.bgsweep", "runtime.bgscavenge", "runtime.deductSweepCredit",
	"runtime.(*mspan)", "runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.(*gcWork)", "runtime.(*gcBits)", "runtime.(*sweepLocked)", "runtime.(*sweepLocker)",
}

func isGC(fn string) bool {
	for _, p := range gcPrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// packageOf returns the import path of a symbol such as
// "repro/internal/sim.(*Engine).pop" or "net/http.(*conn).serve".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOfStack attributes one sample. Frames are walked from the leaf
// up: a GC or allocation frame charges gc, a frame in a layer package
// charges that layer, a frame elsewhere in the repository charges
// other, and a standard-library frame (encoding/json under spec.Decode,
// syscall under the journal's fsync) defers to its caller.
func layerOfStack(frames []string) string {
	for _, fn := range frames {
		if isGC(fn) {
			return "gc"
		}
		pkg := packageOf(fn)
		if l, ok := layerOfPackage[pkg]; ok {
			return l
		}
		if strings.HasPrefix(pkg, "repro") || pkg == "main" {
			return "other"
		}
	}
	return "other"
}

// cpuShares decodes a gzipped CPU profile and returns the sample count
// per layer plus the total.
func cpuShares(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	counts := make(map[string]int64, len(cpuLayers))
	var total int64
	var frames []string
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		frames = frames[:0]
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				frames = append(frames, p.strings[p.funcName[fid]])
			}
		}
		counts[layerOfStack(frames)] += s.values[0]
		total += s.values[0]
	}
	return counts, total, nil
}

type pbSample struct {
	locs   []uint64
	values []int64
}

type pbProfile struct {
	samples  []pbSample
	locLines map[uint64][]uint64 // location id -> function ids, leaf first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbReader walks protobuf wire-format fields.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// next returns the next field's number, wire type, varint value (wire
// type 0) or payload (wire type 2).
func (r *pbReader) next() (field int, wire int, v uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			payload, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return field, wire, v, payload, err
}

// uints appends a repeated integer field in either its packed (wire
// type 2) or unpacked (wire type 0) encoding.
func uints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := pbReader{payload}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	r := pbReader{b}
	for len(r.b) > 0 {
		field, _, _, payload, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var s pbSample
			var vals []uint64
			sr := pbReader{payload}
			for len(sr.b) > 0 {
				f, w, v, pl, err := sr.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = uints(s.locs, w, v, pl); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = uints(vals, w, v, pl); err != nil {
						return nil, err
					}
				}
			}
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			lr := pbReader{payload}
			for len(lr.b) > 0 {
				f, _, v, pl, err := lr.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					ln := pbReader{pl}
					for len(ln.b) > 0 {
						lf, _, lv, _, err := ln.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			p.locLines[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			fr := pbReader{payload}
			for len(fr.b) > 0 {
				f, _, v, _, err := fr.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(payload))
		}
	}
	for _, name := range p.funcName {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function name index %d out of range", name)
		}
	}
	return p, nil
}
