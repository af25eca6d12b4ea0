package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"mobirep/internal/sched"
)

// MaxWindow is the largest window size any part of the program accepts.
const MaxWindow = 128

// CheckWindowSize reports whether k is a legal window size. It is the one
// statement of the bound and its error: the constructors here panic with
// it, and Spec.Validate and the wire decoder return it wrapped, wherever a
// size enters the program.
func CheckWindowSize(k int) error {
	if k < 1 || k > MaxWindow {
		return fmt.Errorf("window size %d outside [1, %d]", k, MaxWindow)
	}
	return nil
}

// Window is the sliding window of the last k relevant requests that the
// SWk family inspects. The paper stores it as k bits (0 for a read, 1 for
// a write); this is that representation: a 128-bit shift register in two
// words with the oldest request at bit 0 and the newest at bit Size-1,
// plus the size and a running write count, so a slide is a shift and a
// majority test is a compare. Bits at or above Size are always zero, so
// two windows hold the same requests exactly when they are ==.
//
// Window is a value: copying it copies the state, and the zero Window is
// the empty window (Size 0) that a message without a handoff carries.
//
// The window is also a first-class protocol object: when window ownership
// moves between the mobile and stationary computer (section 4), the
// current bits travel inside the handoff message. The register's
// little-endian bytes are the wire form (AppendPacked, UnpackWindow).
// This file is the only place that knows the layout.
type Window struct {
	lo, hi uint64
	size   uint8
	writes uint8
}

// NewWindow returns a window of size k pre-filled with fill. The paper
// leaves the initial window unspecified because it only affects a finite
// prefix; filling with writes starts the system in the one-copy scheme,
// which matches a mobile computer that has just connected and holds no
// copy. k must be in [1, MaxWindow].
func NewWindow(k int, fill sched.Op) Window {
	if err := CheckWindowSize(k); err != nil {
		panic("core: " + err.Error())
	}
	w := Window{size: uint8(k)}
	w.Fill(fill)
	return w
}

// WindowOf returns the window holding bits, oldest first; an empty
// schedule yields the zero Window. It panics past MaxWindow.
func WindowOf(bits sched.Schedule) Window {
	if len(bits) == 0 {
		return Window{}
	}
	w := NewWindow(len(bits), sched.Read)
	var reg [2]uint64
	PackOps(reg[:], bits)
	w.lo, w.hi = reg[0], reg[1]
	w.trim()
	return w
}

// setBit sets register bit i. Go defines an over-wide shift as zero, so
// exactly one of the two ORs lands.
func (w *Window) setBit(i uint) {
	w.lo |= 1 << i
	w.hi |= 1 << (i - 64)
}

// Size returns k.
func (w Window) Size() int { return int(w.size) }

// Writes returns the number of writes currently in the window.
func (w Window) Writes() int { return int(w.writes) }

// Reads returns the number of reads currently in the window.
func (w Window) Reads() int { return int(w.size) - int(w.writes) }

// ReadMajority reports whether reads strictly outnumber writes. With the
// paper's odd k there are no ties, so !ReadMajority means write majority.
func (w Window) ReadMajority() bool { return 2*int(w.writes) < int(w.size) }

// Push drops the oldest request and records op as the newest.
func (w *Window) Push(op sched.Op) {
	out := uint8(w.lo & 1)
	w.lo = w.lo>>1 | w.hi<<63
	w.hi >>= 1
	if op == sched.Write {
		w.setBit(uint(w.size) - 1)
		w.writes++
	}
	w.writes -= out
}

// Replay pushes src's requests into w, oldest first, as if each had
// reached w in turn: a window of src's size becomes src, a larger one
// keeps its newest requests ahead of them, and a smaller one keeps the
// newest of src's. It allocates nothing.
func (w *Window) Replay(src Window) {
	for i := 0; i < int(src.size); i++ {
		word := src.lo
		if i >= 64 {
			word = src.hi
		}
		w.Push(sched.Op(word >> (uint(i) & 63) & 1))
	}
}

// The block kernel. SWk, T1m and T2m all hold a copy after a request
// exactly while fewer than need of the last k requests were writes: SWk
// with need (k+1)/2, T1m with k = m and need 1 (the last m were reads),
// T2m with k = m and need m (not all of the last m were writes). slide
// decides that rule for a block of requests eight at a time, one request
// a byte lane of a word.
const (
	lanes  = 0x0101010101010101 // the low bit of every byte
	gather = 0x0102040810204080 // x&lanes * gather >> 56 packs byte j's low bit into bit j
)

// slide is the one block kernel. With w holding the k requests before
// ops[0], it sets bit i%64 of has[i/64] to whether fewer than need of the k
// requests ending at ops[i] are writes, clears the bits past len(ops) in
// the last word it sets, and returns the window of the newest k requests.
// 1 <= need <= k; has must hold (len(ops)+63)/64 words.
//
// The request leaving the window at ops[i] is ops[i-k] once i >= k and a
// window bit before. So the window's requests are laid out a byte each in
// head, followed by the block's first requests up to the first word
// boundary past k, and that head is slid first; the rest of the block is
// slid against itself.
func (w Window) slide(ops sched.Schedule, need int, has []uint64) Window {
	k, n := int(w.size), len(ops)
	var head [2 * MaxWindow]sched.Op
	w.unpack(head[:])
	h := min(n, (k+63)&^63)
	copy(head[k:], ops[:h])
	b := slideRun(head[k:k+h], head[:h], uint64(0x80+int(w.writes)-need), has)
	if h < n {
		slideRun(ops[h:], ops[h-k:n-k], b, has[h/64:])
	}
	if n >= k {
		return WindowOf(ops[n-k:])
	}
	return WindowOf(head[n : n+k])
}

// slideRun sets bit i%64 of has[i/64] to the copy bit after in[i], as
// in[i] enters the window and gone[i] leaves it. b is the lane byte,
// 0x80 + writes - need, of the window before in[0]; the result is the one
// after the last request.
func slideRun(in, gone sched.Schedule, b uint64, has []uint64) uint64 {
	gone = gone[:len(in)]
	w := 0
	for ; len(in) >= 64 && len(gone) >= 64; w++ {
		has[w], b = slideWord((*[64]sched.Op)(in), (*[64]sched.Op)(gone), b)
		in, gone = in[64:], gone[64:]
	}
	if len(in) > 0 {
		// The last few requests, padded with lanes where nothing enters or
		// leaves: those repeat the last real lane, and are cleared.
		var tin, tgone [64]sched.Op
		copy(tin[:], in)
		copy(tgone[:], gone)
		var x uint64
		x, b = slideWord(&tin, &tgone, b)
		// The shift count is bounded with & 63, not min(): go1.24.0 on
		// amd64 miscompiled a min()-bounded shift count in an earlier form
		// of this loop (the CMOV of the min read flags that a later SBB
		// had clobbered).
		has[w] = x & (1<<(len(in)&63) - 1)
	}
	return b
}

// slideWord is the kernel on 64 requests: it returns their copy bits and
// the lane byte after the last. It is kept out of line so that its loop
// holds all its values in registers.
//
//go:noinline
func slideWord(in, gone *[64]sched.Op, b uint64) (x, next uint64) {
	var c [8]uint64
	c[0], b = slide8(load8(in[0:8]), load8(gone[0:8]), b)
	c[1], b = slide8(load8(in[8:16]), load8(gone[8:16]), b)
	c[2], b = slide8(load8(in[16:24]), load8(gone[16:24]), b)
	c[3], b = slide8(load8(in[24:32]), load8(gone[24:32]), b)
	c[4], b = slide8(load8(in[32:40]), load8(gone[32:40]), b)
	c[5], b = slide8(load8(in[40:48]), load8(gone[40:48]), b)
	c[6], b = slide8(load8(in[48:56]), load8(gone[48:56]), b)
	c[7], b = slide8(load8(in[56:64]), load8(gone[56:64]), b)
	return c[0] | c[1]<<8 | c[2]<<16 | c[3]<<24 | c[4]<<32 | c[5]<<40 | c[6]<<48 | c[7]<<56, b
}

// slide8 is the kernel's step on eight requests, one a byte: in holds the
// ones entering the window, gone the ones leaving it, and b the lane byte
// before the first. One multiply by lanes turns the differences into
// prefix sums, so lane j holds 0x80 + writes - need after request j. With
// k <= MaxWindow = 128 every such value is in [0, 255], so no lane carries
// into the next, and the copy bit is the lane's clear top bit. It returns
// the eight copy bits and the lane byte after the last request.
func slide8(in, gone, b uint64) (copies, next uint64) {
	v := (in&lanes - gone&lanes + b) * lanes
	return (^v >> 7 & lanes) * gather >> 56, v >> 56
}

// load8 returns s[0:8] as a word, s[j] in byte j.
func load8(s sched.Schedule) uint64 {
	s = s[:8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// PackOps sets bit i%64 of dst[i/64] to whether ops[i] is a write, and
// clears the bits past len(ops) in the last word; dst must hold
// (len(ops)+63)/64 words. It is the bit form a block's requests are priced
// in, beside the copy bits of ApplyBlock.
func PackOps(dst []uint64, ops sched.Schedule) {
	w := 0
	for ; len(ops) >= 64; w++ {
		dst[w] = packWord((*[64]sched.Op)(ops))
		ops = ops[64:]
	}
	if len(ops) > 0 {
		var tail [64]sched.Op // padded with reads
		copy(tail[:], ops)
		dst[w] = packWord(&tail)
	}
}

// packWord packs 64 requests into a word, request j in bit j.
func packWord(s *[64]sched.Op) uint64 {
	return pack8(s[0:8]) | pack8(s[8:16])<<8 | pack8(s[16:24])<<16 | pack8(s[24:32])<<24 |
		pack8(s[32:40])<<32 | pack8(s[40:48])<<40 | pack8(s[48:56])<<48 | pack8(s[56:64])<<56
}

// pack8 packs eight requests into a byte, s[j] in bit j.
func pack8(s sched.Schedule) uint64 { return load8(s) & lanes * gather >> 56 }

// unpack writes the window's requests to dst a byte each, oldest first,
// eight at a time: dst must hold Size rounded up to eight, and the bytes
// past Size are reads.
func (w Window) unpack(dst sched.Schedule) {
	for i := 0; i < int(w.size); i += 8 {
		reg := w.lo
		if i >= 64 {
			reg = w.hi
		}
		// Byte j of the product keeps bit j of the eight; adding 0x80 - 2^j
		// carries it into the byte's top bit.
		x := (reg>>(i&63)&0xff*lanes&0x8040201008040201 + 0x00406070787c7e7f) >> 7 & lanes
		d := dst[i : i+8]
		for j := range d {
			d[j] = sched.Op(x >> (8 * j))
		}
	}
}

// tailWindow returns the window of k requests whose newest run are op and
// whose older ones are the other kind, 0 <= run <= k.
func tailWindow(k, run int, op sched.Op) Window {
	older := Window{lo: ^uint64(0), hi: ^uint64(0), size: uint8(k - run)}
	older.trim() // the oldest k-run bits set
	w := NewWindow(k, sched.Write)
	if op == sched.Write {
		w.lo &^= older.lo
		w.hi &^= older.hi
	} else {
		w.lo, w.hi = older.lo, older.hi
	}
	w.trim()
	return w
}

// newestRun returns how many of the newest requests in a row are op.
func (w Window) newestRun(op sched.Op) int {
	lo, hi := w.lo, w.hi
	if op == sched.Write {
		lo, hi = ^lo, ^hi
	}
	// Count the clear bits down from bit Size-1, shifted to the top of its
	// word.
	k := int(w.size)
	if k <= 64 {
		return min(bits.LeadingZeros64(lo<<((64-k)&63)), k)
	}
	if z := bits.LeadingZeros64(hi << ((128 - k) & 63)); z < k-64 {
		return z
	}
	return k - 64 + bits.LeadingZeros64(lo)
}

// writesInNewest returns the number of writes among the newest n
// requests, 0 <= n <= Size.
func (w Window) writesInNewest(n int) int {
	skip := uint(w.size) - uint(n)
	lo, hi := w.lo, w.hi
	if skip >= 64 {
		lo, hi, skip = hi, 0, skip-64
	}
	lo = lo>>skip | hi<<(64-skip)
	hi >>= skip
	return bits.OnesCount64(lo) + bits.OnesCount64(hi)
}

// Bits returns the window contents oldest-first as a schedule.
func (w Window) Bits() sched.Schedule {
	out := make(sched.Schedule, w.size)
	for i := range out {
		word := w.lo
		if i >= 64 {
			word = w.hi
		}
		out[i] = sched.Op(word >> (uint(i) & 63) & 1)
	}
	return out
}

// Fill resets every slot to op.
func (w *Window) Fill(op sched.Op) {
	w.lo, w.hi, w.writes = 0, 0, 0
	if op == sched.Write {
		w.lo, w.hi = ^uint64(0), ^uint64(0)
		w.trim()
	}
}

// trim clears the register bits at and above Size and recounts the
// writes, restoring the invariants after a bulk load.
func (w *Window) trim() {
	// A shift by the full width is zero, so n == 64 and n == 128 mask
	// with all ones.
	if n := uint(w.size); n <= 64 {
		w.lo &= 1<<n - 1
		w.hi = 0
	} else {
		w.hi &= 1<<(n-64) - 1
	}
	w.writes = uint8(bits.OnesCount64(w.lo) + bits.OnesCount64(w.hi))
}

// String renders the window oldest-first, e.g. "rrwrw".
func (w Window) String() string { return w.Bits().String() }

// PackedLen returns the number of bytes AppendPacked appends.
func (w Window) PackedLen() int { return (int(w.size) + 7) / 8 }

// AppendPacked appends the window in its wire form — oldest request
// first, eight per byte, least significant bit first, write = 1 — which is
// the leading PackedLen bytes of the register in little-endian order.
func (w Window) AppendPacked(dst []byte) []byte {
	var reg [16]byte
	binary.LittleEndian.PutUint64(reg[:8], w.lo)
	binary.LittleEndian.PutUint64(reg[8:], w.hi)
	return append(dst, reg[:w.PackedLen()]...)
}

// UnpackWindow is the inverse of AppendPacked for a window of n requests:
// packed must be exactly the (n+7)/8 bytes AppendPacked wrote. Padding
// bits past n are ignored. n == 0 yields the zero Window.
func UnpackWindow(n int, packed []byte) (Window, error) {
	if n != 0 {
		if err := CheckWindowSize(n); err != nil {
			return Window{}, fmt.Errorf("core: %w", err)
		}
	}
	if len(packed) != (n+7)/8 {
		return Window{}, fmt.Errorf("core: window of %d bits needs %d bytes, got %d", n, (n+7)/8, len(packed))
	}
	var reg [16]byte
	copy(reg[:], packed)
	w := Window{
		lo:   binary.LittleEndian.Uint64(reg[:8]),
		hi:   binary.LittleEndian.Uint64(reg[8:]),
		size: uint8(n),
	}
	w.trim()
	return w, nil
}
