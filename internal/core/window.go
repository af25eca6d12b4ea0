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
// it, and replica.Mode, tree.Policy, sim.ParsePolicy and the wire decoder
// return it wrapped, wherever a size enters the program.
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
	for i, op := range bits {
		if op == sched.Write {
			w.setBit(uint(i))
			w.writes++
		}
	}
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

// slideBlock pushes every request of ops and writes to out, one Code per
// request, the step SWk takes on it; had (0 or 1) says whether the MC held
// a copy before the first request, the result whether it does after the
// last. It is Push and ReadMajority per request, and for the block's first
// Size requests literally so. Past those the request leaving the window is
// ops[i-Size], not a register bit, so slideSum carries only the write
// count and the copy bit, and the register is rebuilt once, by pushing the
// block's newest Size requests.
func (w *Window) slideBlock(ops sched.Schedule, out []Code, had uint64) uint64 {
	k := int(w.size)
	// SW1 sends a bare delete-request for a write that finds a copy.
	var sw1 uint64
	if k == 1 {
		sw1 = 1
	}
	// Reads are the majority, 2*writes < k, exactly when writes is short
	// of (k+1)/2.
	need := (k + 1) / 2
	head := min(k, len(ops))
	out = out[:len(ops)]
	for i, op := range ops[:head] {
		w.Push(op)
		out[i], had = slideCode(uint64(op&1), had, sw1, int(w.writes)-need)
	}
	had = slideSum(ops[head:], ops[:len(ops)-head], out[head:], int(w.writes)-need, had, sw1)
	for _, op := range ops[max(head, len(ops)-k):] {
		w.Push(op)
	}
	return had
}

// slideSum is slideBlock's steady state: in[i] enters the window as
// gone[i] leaves it, and short is the window's write count less the
// (k+1)/2 that ends the read majority. It is a function of its own, and
// kept out of line, so that the loop's few values all stay in registers:
// inlined into slideBlock they spill.
//
//go:noinline
func slideSum(in, gone sched.Schedule, out []Code, short int, had, sw1 uint64) uint64 {
	gone, out = gone[:len(in)], out[:len(in)]
	for i, op := range in {
		short += int(op&1) - int(gone[i]&1)
		out[i], had = slideCode(uint64(op&1), had, sw1, short)
	}
	return had
}

// slideCode is SWk's step on request o (0 read, 1 write) that left the
// window short (negative) or not of the writes that end the read
// majority: the MC holds a copy exactly while it is short.
func slideCode(o, had, sw1 uint64, short int) (c Code, has uint64) {
	has = uint64(int64(short)) >> 63
	return Code(o | had<<1 | has<<2 | (sw1&o&had)<<3), has
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

// LoadBits replaces the window contents with the given oldest-first
// sequence, which must have exactly Size entries.
func (w *Window) LoadBits(bits sched.Schedule) error {
	if len(bits) != int(w.size) {
		return fmt.Errorf("core: window handoff carried %d bits, want %d", len(bits), w.size)
	}
	*w = WindowOf(bits)
	return nil
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
