package main

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Every 64-byte line the benchmark writes is self-describing:
//
//	[0:8)   line index
//	[8:16)  write version (1 = the set-up load)
//	[16:56) filler derived from (line, version)
//	[56:64) FNV-1a checksum of [0:56)
//
// so a read can be checked on its own (checksum, index) and against
// the shadow (version), and the final sweep can rebuild the exact
// bytes every line must hold. FNV-1a's per-byte step is a bijection,
// so any single changed byte, and so any flipped bit, changes the sum.
const lineSize = 64

func fillPayload(dst []byte, line, version uint64) {
	binary.LittleEndian.PutUint64(dst[0:8], line)
	binary.LittleEndian.PutUint64(dst[8:16], version)
	x := line*0x9e3779b97f4a7c15 ^ version
	for i := 16; i < 56; i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(dst[i:i+8], z^z>>31)
	}
	binary.LittleEndian.PutUint64(dst[56:64], fnv64(dst[:56]))
}

func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// checkPayload verifies b's checksum and line index and returns the
// version it carries.
func checkPayload(b []byte, line uint64) (uint64, error) {
	if len(b) != lineSize {
		return 0, fmt.Errorf("line %d: %d bytes, want %d", line, len(b), lineSize)
	}
	if sum := fnv64(b[:56]); sum != binary.LittleEndian.Uint64(b[56:64]) {
		return 0, fmt.Errorf("line %d: checksum mismatch", line)
	}
	if got := binary.LittleEndian.Uint64(b[0:8]); got != line {
		return 0, fmt.Errorf("line %d: payload carries line index %d", line, got)
	}
	return binary.LittleEndian.Uint64(b[8:16]), nil
}

// shadow tracks, per line, the last write version issued and the last
// one acknowledged. Each line has a single writer (see stream.owned),
// so issued is done or done+1, and a read that started after done was
// loaded and ended before issued was loaded must return a version in
// [done, issued].
type shadow struct {
	issued []atomic.Uint64
	done   []atomic.Uint64
}

// newShadow starts every line at version 1, the set-up load.
func newShadow(lines uint64) *shadow {
	s := &shadow{issued: make([]atomic.Uint64, lines), done: make([]atomic.Uint64, lines)}
	for i := range s.done {
		s.issued[i].Store(1)
		s.done[i].Store(1)
	}
	return s
}

// checkRead verifies a payload read from line against the versions
// that were possible while the read was in flight (lo loaded before).
func (s *shadow) checkRead(b []byte, line, lo uint64) error {
	v, err := checkPayload(b, line)
	if err != nil {
		return err
	}
	if hi := s.issued[line].Load(); v < lo || v > hi {
		return fmt.Errorf("line %d: read version %d outside [%d,%d]", line, v, lo, hi)
	}
	return nil
}

// checkFinal compares every line of all (lines×64 bytes, read after
// the workers stopped) with the exact payload of its last version. A
// write that failed may or may not have landed, so a line may hold any
// version in [done, issued]; successful writes leave only one.
func (s *shadow) checkFinal(all []byte, first uint64) error {
	var want [lineSize]byte
	for k := 0; k*lineSize < len(all); k++ {
		line := first + uint64(k)
		got := all[k*lineSize : (k+1)*lineSize]
		v, err := checkPayload(got, line)
		if err != nil {
			return err
		}
		if lo, hi := s.done[line].Load(), s.issued[line].Load(); v < lo || v > hi {
			return fmt.Errorf("line %d: holds version %d, shadow expects [%d,%d]", line, v, lo, hi)
		}
		fillPayload(want[:], line, v)
		if string(want[:]) != string(got) {
			return fmt.Errorf("line %d: bytes differ from version %d's payload", line, v)
		}
	}
	return nil
}
