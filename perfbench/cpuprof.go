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

// layers are the internal packages the CPU profile is attributed to. A
// sample is charged to the innermost frame on its stack that belongs to
// one of them, so runtime work (malloc, map growth, GC assists) and small
// helper packages (addr) land on the layer that called them.
var layers = []string{
	"sim", "blockdev", "ssd", "dram", "ftl", "flash", "core", "blktrace",
	"content", "workload", "array", "obs", "fleet", "power",
}

const internalPrefix = "powerfail/internal/"

// cpuShares attributes a gzipped pprof CPU profile to layers. Only the
// samples labelled key=value count, except those of the GC workers,
// which carry no labels: gc is their share of the whole profile, and the
// layer shares and the unattributed rest (benchmark loop, runtime
// housekeeping) split the remainder in proportion to the labelled
// samples, so all shares sum to one.
func cpuShares(gz []byte, key, value string) (share map[string]float64, gc, unattributed float64, err error) {
	prof, err := parseProfile(gz)
	if err != nil {
		return nil, 0, 0, err
	}
	tracked := make(map[string]bool, len(layers))
	for _, l := range layers {
		tracked[l] = true
	}
	weight := make(map[string]int64)
	var all, gcW, labelled, none int64
	for _, s := range prof.samples {
		all += s.weight
		switch {
		case prof.inGC(s.stack):
			gcW += s.weight
		case s.labels[key] != value:
		default:
			labelled += s.weight
			if l := prof.innermostLayer(s.stack, tracked); l != "" {
				weight[l] += s.weight
			} else {
				none += s.weight
			}
		}
	}
	share = make(map[string]float64, len(layers))
	for _, l := range layers {
		share[l] = 0
	}
	if labelled == 0 {
		return share, 0, 0, fmt.Errorf("cpu profile holds no samples labelled %s=%s", key, value)
	}
	gc = float64(gcW) / float64(all)
	scale := (1 - gc) / float64(labelled)
	for l, w := range weight {
		share[l] = float64(w) * scale
	}
	return share, gc, float64(none) * scale, nil
}

// innermostLayer walks a stack leaf first (and each location's inlined
// frames innermost first) and returns the first tracked layer it meets.
func (p *profile) innermostLayer(stack []uint64, tracked map[string]bool) string {
	for _, loc := range stack {
		for _, fn := range p.locFuncs[loc] {
			name := p.funcName[fn]
			if !strings.HasPrefix(name, internalPrefix) {
				continue
			}
			l := name[len(internalPrefix):]
			if i := strings.IndexAny(l, "./"); i >= 0 {
				l = l[:i]
			}
			if tracked[l] {
				return l
			}
		}
	}
	return ""
}

// inGC reports whether a stack belongs to the garbage collector's own
// workers rather than to the goroutine it runs beside.
func (p *profile) inGC(stack []uint64) bool {
	for _, loc := range stack {
		for _, fn := range p.locFuncs[loc] {
			switch p.funcName[fn] {
			case "runtime.gcBgMarkWorker", "runtime._GC":
				return true
			}
		}
	}
	return false
}

// profile is the part of a pprof profile.proto the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]string   // function id -> name
}

type sample struct {
	stack  []uint64          // location ids, leaf first
	weight int64             // first sample value (the sample count)
	labels map[string]string // string labels (pprof.Do)
}

// parseProfile decodes a gzipped profile.proto: samples (field 2) with
// their labels, locations (4), functions (5) and the string table (6).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	// Names are string-table indexes until the table has been read.
	funcStr := map[uint64]uint64{}
	var labelStr [][3]uint64 // sample index, key, value
	var strs []string
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			s := sample{weight: -1}
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachUint(v, b, func(x uint64) { s.stack = append(s.stack, x) })
				case 2:
					return eachUint(v, b, func(x uint64) {
						if s.weight < 0 {
							s.weight = int64(x)
						}
					})
				case 3:
					var k, str uint64
					err := eachField(b, func(num int, v uint64, _ []byte) error {
						switch num {
						case 1:
							k = v
						case 2:
							str = v
						}
						return nil
					})
					labelStr = append(labelStr, [3]uint64{uint64(len(p.samples)), k, str})
					return err
				}
				return nil
			})
			s.weight = max(s.weight, 0)
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcStr[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("cpu profile: string %d of %d", i, len(strs))
		}
		return strs[i], nil
	}
	for id, si := range funcStr {
		if p.funcName[id], err = str(si); err != nil {
			return nil, err
		}
	}
	for _, l := range labelStr {
		k, err := str(l[1])
		if err != nil {
			return nil, err
		}
		v, err := str(l[2])
		if err != nil {
			return nil, err
		}
		s := &p.samples[l[0]]
		if s.labels == nil {
			s.labels = map[string]string{}
		}
		s.labels[k] = v
	}
	return p, nil
}

// eachField calls fn for every field of a protobuf message: v carries
// varint and fixed-width values, b the bytes of length-delimited ones.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errors.New("truncated fixed field")
			}
			var le [8]byte
			copy(le[:], msg[:w])
			v = binary.LittleEndian.Uint64(le[:])
			msg = msg[w:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// eachUint decodes a repeated integer field that arrives either as one
// varint (b == nil) or packed (b holds the varints).
func eachUint(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
