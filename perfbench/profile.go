package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileShares is a CPU profile charged to the repository's modules.
type profileShares struct {
	// cpu is the CPU seconds charged to each module over the whole
	// process; cpuTotal is their sum.
	cpu      map[string]float64
	cpuTotal float64
	// unwrapped is the CPU seconds of the repetitions' own goroutines
	// (pprof label perfbench=rep) outside the wrapper-timed calls,
	// charged the same way.
	unwrapped map[string]float64
}

// wrapperFrames are the benchmark's per-call timed wrappers: a sample
// under one of them, or labeled perfbench=wrapped, is already counted by
// a wrapper's timer.
var wrapperFrames = []string{
	"(*timedSource).Next",
	"(*benchDevice).Service",
}

// benchPackages are the names this package's functions carry in a
// profile: "main" in the benchmark binary, the import path in its tests.
var benchPackages = []string{"main.", "repro/perfbench."}

// benchFunc strips this package's prefix from fn; ok is false for
// functions of other packages.
func benchFunc(fn string) (name string, ok bool) {
	for _, p := range benchPackages {
		if strings.HasPrefix(fn, p) {
			return fn[len(p):], true
		}
	}
	return "", false
}

// moduleOf names the repository module a function belongs to, or "".
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "repro/internal/"):
		rest := fn[len("repro/internal/"):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "repro/scrubbing."):
		return "scrubbing"
	}
	if _, ok := benchFunc(fn); ok {
		return "perfbench"
	}
	return ""
}

// cpuShares decodes a runtime/pprof CPU profile and charges every sample
// to the innermost frame that belongs to a repository module; runtime,
// map and memmove frames thereby go to their caller, and samples with no
// repository frame go to "runtime".
func cpuShares(gz []byte) (*profileShares, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	out := &profileShares{cpu: map[string]float64{}, unwrapped: map[string]float64{}}
	for _, s := range p.samples {
		mod := "runtime"
		wrapped := s.label == "wrapped"
		found := false
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if !found {
					if m := moduleOf(fn); m != "" && m != "perfbench" {
						mod, found = m, true
					}
				}
				if name, ok := benchFunc(fn); ok {
					for _, w := range wrapperFrames {
						if name == w {
							wrapped = true
						}
					}
				}
			}
		}
		sec := float64(s.nanos) / 1e9
		out.cpu[mod] += sec
		out.cpuTotal += sec
		if s.label != "" && !wrapped {
			out.unwrapped[mod] += sec
		}
	}
	return out, nil
}

// The subset of profile.proto the decoder reads.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location id → function names, innermost first
}

type sample struct {
	locs  []uint64 // leaf first
	nanos int64
	label string // value of the perfbench label, if any
}

// parseProfile decodes the gzipped protobuf that runtime/pprof writes.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location → function ids
		funcs   = map[uint64]int64{}    // function id → name index
		strs    []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbUints(s.locs, v, b)
				case 2:
					for _, x := range pbUints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var kv [2]int64
					err := pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{locFuncs: map[uint64][]string{}}
	for id, fns := range locs {
		for _, f := range fns {
			p.locFuncs[id] = append(p.locFuncs[id], str(funcs[f]))
		}
	}
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ps := sample{locs: s.locs, nanos: s.values[1]}
		for _, kv := range s.labels {
			if str(kv[0]) == "perfbench" {
				ps.label = str(kv[1])
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// pbFields walks the fields of one protobuf message. fn gets the field
// number and either a varint value or a length-delimited payload.
func pbFields(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// pbUints appends a repeated uint64 field given either unpacked (v) or
// packed (payload).
func pbUints(dst []uint64, v uint64, payload []byte) []uint64 {
	if payload == nil {
		return append(dst, v)
	}
	for len(payload) > 0 {
		x, n := pbVarint(payload)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		payload = payload[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
