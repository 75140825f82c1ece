package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the cpu.<module>_s metrics: self CPU time of each sample's
// innermost function, grouped by the package it belongs to. Samples whose
// stack passes through a GC worker or assist go to "gc" whatever their leaf.
var cpuBuckets = []string{
	"candtab", "apriori", "hpa", "itemset", "transport", "gob", "memtable",
	"remotemem", "rmtp", "relay", "net", "syscall", "sim", "simnet",
	"gc", "runtime", "other",
}

var packageBucket = map[string]string{
	"repro/internal/candtab":   "candtab",
	"repro/internal/htree":     "apriori",
	"repro/internal/apriori":   "apriori",
	"repro/internal/hpa":       "hpa",
	"repro/internal/itemset":   "itemset",
	"repro/internal/transport": "transport",
	"encoding/gob":             "gob",
	"repro/internal/memtable":  "memtable",
	"repro/internal/remotemem": "remotemem",
	"repro/internal/rmtp":      "rmtp",
	"repro/internal/chaos":     "relay",
	"net":                      "net",
	"internal/poll":            "net",
	"syscall":                  "syscall",
	"internal/runtime/syscall": "syscall",
	"repro/internal/sim":       "sim",
	"repro/internal/simnet":    "simnet",
	"runtime":                  "runtime",
	"internal/runtime/atomic":  "runtime",
	"internal/runtime/maps":    "runtime",
}

// gcRoots mark a sample as garbage-collection work.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot",
}

// foldCPUProfile decodes a gzipped pprof CPU profile and adds each sample's
// CPU seconds to its bucket.
func foldCPUProfile(data []byte, into map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	name := func(fn uint64) string {
		if i := p.funcName[fn]; i < uint64(len(p.strings)) {
			return p.strings[i]
		}
		return ""
	}
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		secs := float64(s.values[len(s.values)-1]) / 1e9 // the cpu/nanoseconds value
		bucket := "other"
		if fns := p.locFuncs[s.locs[0]]; len(fns) > 0 {
			if b, ok := packageBucket[packageOf(name(fns[0]))]; ok {
				bucket = b
			}
		}
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				n := name(fn)
				for _, root := range gcRoots {
					if n == root {
						bucket = "gc"
						break stack
					}
				}
			}
		}
		into[bucket] += secs
	}
	return nil
}

// packageOf returns the import path of a Go symbol name such as
// "repro/internal/hpa.(*appNode).runSender.func1".
func packageOf(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// profile holds the parts of a pprof profile the folding needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]uint64   // function id -> string table index
	strings  []string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// decodeProfile reads the protobuf encoding of profile.proto: samples
// (field 2), locations (4), functions (5) and the string table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]uint64{}}
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2:
			var s profSample
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, m)
				case 2:
					var u []uint64
					if err := appendVarints(&u, v, m); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(m, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id, nameIdx uint64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					nameIdx = v
				}
				return nil
			})
			p.funcName[id] = nameIdx
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, passing each field's number and
// either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (msg) or not (v).
func appendVarints(dst *[]uint64, v uint64, msg []byte) error {
	if msg == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}
