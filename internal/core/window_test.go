package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"mobirep/internal/sched"
	"mobirep/internal/stats"
)

func TestNewWindowFill(t *testing.T) {
	w := NewWindow(5, sched.Write)
	if w.Size() != 5 || w.Writes() != 5 || w.Reads() != 0 {
		t.Fatalf("write-filled window: size=%d writes=%d reads=%d", w.Size(), w.Writes(), w.Reads())
	}
	if w.ReadMajority() {
		t.Fatal("write-filled window should not have read majority")
	}
	w = NewWindow(3, sched.Read)
	if w.Writes() != 0 || !w.ReadMajority() {
		t.Fatalf("read-filled window: writes=%d", w.Writes())
	}
}

func TestNewWindowPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWindow(0) did not panic")
		}
	}()
	NewWindow(0, sched.Read)
}

func TestWindowPushTracksLastK(t *testing.T) {
	w := NewWindow(3, sched.Write)
	seq := sched.MustParse("rrwrrrwwr")
	for i, op := range seq {
		w.Push(op)
		// Reference: the last min(i+1,3) ops of seq, padded with writes.
		wantWrites := 0
		for j := 0; j < 3; j++ {
			idx := i - j
			if idx < 0 || seq[idx] == sched.Write {
				wantWrites++
			}
		}
		if w.Writes() != wantWrites {
			t.Fatalf("after %d ops: writes=%d want %d (window %q)", i+1, w.Writes(), wantWrites, w.String())
		}
	}
}

func TestWindowBitsOldestFirst(t *testing.T) {
	w := NewWindow(3, sched.Write)
	w.Push(sched.Read)  // window w w r
	w.Push(sched.Write) // window w r w
	w.Push(sched.Read)  // window r w r
	w.Push(sched.Read)  // window w r r
	if got := w.String(); got != "wrr" {
		t.Fatalf("window bits = %q, want wrr", got)
	}
}

func TestWindowLoadBitsRoundTrip(t *testing.T) {
	check := func(raw []bool, extra []bool) bool {
		if len(raw) == 0 {
			return true
		}
		bits := make(sched.Schedule, len(raw))
		for i, b := range raw {
			if b {
				bits[i] = sched.Write
			}
		}
		w := NewWindow(len(bits), sched.Read)
		if err := w.LoadBits(bits); err != nil {
			return false
		}
		if w.String() != bits.String() {
			return false
		}
		// After arbitrary pushes, reloading must still round-trip.
		for _, b := range extra {
			op := sched.Read
			if b {
				op = sched.Write
			}
			w.Push(op)
		}
		if err := w.LoadBits(bits); err != nil {
			return false
		}
		return w.String() == bits.String()
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWindowLoadBitsSizeMismatch(t *testing.T) {
	w := NewWindow(3, sched.Read)
	if err := w.LoadBits(sched.MustParse("rw")); err == nil {
		t.Fatal("expected size-mismatch error")
	}
}

func TestWindowFill(t *testing.T) {
	w := NewWindow(5, sched.Write)
	w.Push(sched.Read)
	w.Push(sched.Read)
	w.Fill(sched.Read)
	if w.Writes() != 0 || w.String() != "rrrrr" {
		t.Fatalf("after Fill(Read): %q writes=%d", w.String(), w.Writes())
	}
	w.Fill(sched.Write)
	if w.Writes() != 5 {
		t.Fatalf("after Fill(Write): writes=%d", w.Writes())
	}
}

func TestWindowCountsConsistent(t *testing.T) {
	check := func(raw []bool) bool {
		w := NewWindow(7, sched.Write)
		for _, b := range raw {
			op := sched.Read
			if b {
				op = sched.Write
			}
			w.Push(op)
			bits := w.Bits()
			r, wr := bits.Counts()
			if r != w.Reads() || wr != w.Writes() {
				return false
			}
			if w.ReadMajority() != (r > wr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWindowMatchesNaiveSlide drives the packed window and a plain
// []sched.Op slide side by side at every legal size: push, Bits, the
// LoadBits(Bits()) round trip, Fill, majority, the write counts and the
// newest-n count must agree after every step, across the 64-bit word
// boundary and at the bound.
func TestWindowMatchesNaiveSlide(t *testing.T) {
	rng := stats.NewRNG(1994)
	for k := 1; k <= MaxWindow; k++ {
		w := NewWindow(k, sched.Write)
		ref := sched.Block(sched.Write, k)
		check := func(when string) {
			t.Helper()
			if got := w.Bits().String(); got != ref.String() {
				t.Fatalf("k=%d %s: Bits() = %s, want %s", k, when, got, ref)
			}
			reads, writes := ref.Counts()
			if w.Size() != k || w.Reads() != reads || w.Writes() != writes {
				t.Fatalf("k=%d %s: size/reads/writes = %d/%d/%d, want %d/%d/%d",
					k, when, w.Size(), w.Reads(), w.Writes(), k, reads, writes)
			}
			if w.ReadMajority() != (reads > writes) {
				t.Fatalf("k=%d %s: ReadMajority = %v with %d reads, %d writes", k, when, w.ReadMajority(), reads, writes)
			}
			n := rng.Intn(k + 1)
			_, newest := ref[k-n:].Counts()
			if got := w.writesInNewest(n); got != newest {
				t.Fatalf("k=%d %s: writesInNewest(%d) = %d, want %d", k, when, n, got, newest)
			}
			back := NewWindow(k, sched.Read)
			if err := back.LoadBits(w.Bits()); err != nil || back != w {
				t.Fatalf("k=%d %s: LoadBits(Bits()) = %v (err %v), want %v", k, when, back, err, w)
			}
			if WindowOf(ref) != w {
				t.Fatalf("k=%d %s: WindowOf(%s) != window %s", k, when, ref, w)
			}
		}
		check("fresh")
		for push := 0; push < 2*k+5; push++ {
			op := sched.Read
			if rng.Bernoulli(0.4) {
				op = sched.Write
			}
			w.Push(op)
			ref = append(ref[1:], op)
			check(fmt.Sprintf("after push %d", push))
		}
		for _, op := range []sched.Op{sched.Read, sched.Write} {
			w.Fill(op)
			ref = sched.Block(op, k)
			check("after Fill " + op.String())
		}
	}
}

// TestWindowSizeBound table-tests the one bound at the word boundaries:
// every constructor that takes a size accepts [1, MaxWindow] (subject to
// its parity rule) and panics, naming the bound, past it.
func TestWindowSizeBound(t *testing.T) {
	panics := func(f func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
		return ""
	}
	for _, k := range []int{1, 63, 64, 65, 127, 128, 129} {
		ctors := map[string]func(){"NewWindow": func() { NewWindow(k, sched.Write) }}
		if k%2 == 1 {
			ctors["NewSW"] = func() { NewSW(k) }
			ctors["NewAdaptiveSW"] = func() { NewAdaptiveSW(1, k) }
		} else {
			ctors["NewEvenSW"] = func() { NewEvenSW(k) }
		}
		for name, ctor := range ctors {
			msg := panics(ctor)
			if k <= MaxWindow && msg != "" {
				t.Errorf("%s(%d) panicked: %s", name, k, msg)
			}
			if k > MaxWindow && !strings.Contains(msg, fmt.Sprint(MaxWindow)) {
				t.Errorf("%s(%d): panic %q does not name the bound %d", name, k, msg, MaxWindow)
			}
		}
	}
}

// TestWindowPackedForm pins the wire form: oldest request first, eight
// per byte, least significant bit first, write = 1, zero padding.
func TestWindowPackedForm(t *testing.T) {
	cases := []struct {
		bits string
		want []byte
	}{
		{"w", []byte{0x01}},
		{"rwrwr", []byte{0x0a}},
		{"wwwwwwww", []byte{0xff}},
		{"rwrwrwrwr", []byte{0xaa, 0x00}},
		{"rrrrrrrrw", []byte{0x00, 0x01}},
	}
	for _, c := range cases {
		w := WindowOf(sched.MustParse(c.bits))
		got := w.AppendPacked([]byte{0xee})
		if !bytes.Equal(got[1:], c.want) || got[0] != 0xee || w.PackedLen() != len(c.want) {
			t.Errorf("%s packs to %x (PackedLen %d), want %x", c.bits, got[1:], w.PackedLen(), c.want)
		}
		back, err := UnpackWindow(len(c.bits), c.want)
		if err != nil || back != w {
			t.Errorf("UnpackWindow(%d, %x) = %v, %v; want %s", len(c.bits), c.want, back, err, c.bits)
		}
	}
	// Padding bits are ignored, not carried into the state.
	if w, err := UnpackWindow(3, []byte{0xfd}); err != nil || w.String() != "wrw" || w.Writes() != 2 {
		t.Errorf("UnpackWindow(3, fd) = %v, %v", w, err)
	}
	if w, err := UnpackWindow(0, nil); err != nil || w != (Window{}) {
		t.Errorf("UnpackWindow(0) = %v, %v; want the zero window", w, err)
	}
	for _, bad := range []struct {
		n      int
		packed []byte
	}{{MaxWindow + 1, make([]byte, 17)}, {-1, nil}, {9, []byte{0}}, {8, []byte{0, 0}}} {
		if _, err := UnpackWindow(bad.n, bad.packed); err == nil {
			t.Errorf("UnpackWindow(%d, %d bytes) accepted", bad.n, len(bad.packed))
		}
	}
}
