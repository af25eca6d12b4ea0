package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// perfCorpus spans the codec's shapes: every kind, empty and dense
// fields, byte-boundary windows, and binary payloads.
func perfCorpus() []Message {
	return []Message{
		{Kind: KindReadReq, Key: "k", ID: 1},
		{Kind: KindReadResp, Key: "key-7", Value: []byte("value"), Version: 42, ID: 300},
		{Kind: KindReadResp, Key: "key-7", Value: []byte("v"), Version: 3,
			Allocate: true, Window: win("rrwrr"), ID: 1<<64 - 1},
		{Kind: KindReadFail, Key: "k", ID: 7},
		{Kind: KindWriteProp, Key: "hot", Value: bytes.Repeat([]byte{0xA5}, 300), Version: 9000},
		{Kind: KindDeleteReq, Key: "gone", Window: win("wwwwwwww")},
		{Kind: KindDeleteReq, Key: "nine-bits", Window: win("rwrwrwrwr")},
		{Kind: KindPing, Version: 1<<63 - 1},
		{Kind: KindPong},
		{Kind: KindWriteProp, Key: "", Value: nil, Version: 0},
	}
}

// refEncode writes the singleton frame layout out field by field, apart
// from AppendEncode's single append chain: kind, flags, version, the
// request id as a uvarint when flag bit 2 announces one, key, value,
// window length, packed window bits.
func refEncode(m Message) []byte {
	var b bytes.Buffer
	flags := byte(0)
	if m.Allocate {
		flags = 1
	}
	if m.ID != 0 {
		flags |= 2
	}
	b.WriteByte(byte(m.Kind))
	b.WriteByte(flags)
	binary.Write(&b, binary.LittleEndian, m.Version)
	if m.ID != 0 {
		b.Write(binary.AppendUvarint(nil, m.ID))
	}
	binary.Write(&b, binary.LittleEndian, uint16(len(m.Key)))
	b.WriteString(m.Key)
	binary.Write(&b, binary.LittleEndian, uint32(len(m.Value)))
	b.Write(m.Value)
	binary.Write(&b, binary.LittleEndian, uint16(m.Window.Size()))
	b.Write(m.Window.AppendPacked(nil))
	return b.Bytes()
}

// refEncodeBatch writes the batch frame layout out field by field.
func refEncodeBatch(bt Batch) []byte {
	var b bytes.Buffer
	le := binary.LittleEndian
	b.WriteByte(byte(bt.Kind))
	b.WriteByte(batchFormat)
	binary.Write(&b, le, bt.Epoch)
	b.Write(binary.AppendUvarint(nil, bt.ID))
	binary.Write(&b, le, uint16(len(bt.Keys)))
	for i, k := range bt.Keys {
		binary.Write(&b, le, uint16(len(k)))
		b.WriteString(k)
		hint := uint64(0)
		if i < len(bt.Versions) {
			hint = bt.Versions[i]
		}
		binary.Write(&b, le, hint)
	}
	binary.Write(&b, le, uint16(len(bt.Entries)))
	for _, e := range bt.Entries {
		flags := byte(0)
		if e.Allocate {
			flags |= 1
		}
		if e.NotModified {
			flags |= 2
		}
		b.WriteByte(flags)
		binary.Write(&b, le, e.Version)
		binary.Write(&b, le, uint16(len(e.Key)))
		b.WriteString(e.Key)
		binary.Write(&b, le, uint32(len(e.Value)))
		b.Write(e.Value)
		binary.Write(&b, le, uint16(e.Window.Size()))
		b.Write(e.Window.AppendPacked(nil))
	}
	return b.Bytes()
}

// TestAppendEncodeMatchesEncode pins AppendEncode to the frame layout: a
// fresh encode, an encode into a warm pooled buffer, and an encode after a
// prefix all append exactly the reference bytes.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	buf := GetBuf()
	defer PutBuf(buf)
	for _, m := range perfCorpus() {
		want := refEncode(m)
		got, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%v: AppendEncode(nil) differs from the frame layout\n got %x\nwant %x", m.Kind, got, want)
		}
		pooled, err := AppendEncode(buf.B[:0], m)
		if err != nil {
			t.Fatal(err)
		}
		buf.B = pooled
		if !bytes.Equal(pooled, want) {
			t.Errorf("%v: pooled AppendEncode differs\n got %x\nwant %x", m.Kind, pooled, want)
		}
		// Appending after a prefix must leave the prefix intact and
		// produce the same frame bytes.
		prefix := []byte("prefix!")
		ext, err := AppendEncode(append([]byte(nil), prefix...), m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ext[:len(prefix)], prefix) || !bytes.Equal(ext[len(prefix):], want) {
			t.Errorf("%v: AppendEncode with prefix diverged", m.Kind)
		}
	}
}

// TestDecodeBorrowedMatchesDecode checks the owned decode — DecodeBorrowed
// then Clone, which is how a handler keeps a message — gives back every
// field of the encoded message, and that malformed frames are refused.
func TestDecodeBorrowedMatchesDecode(t *testing.T) {
	for _, m := range perfCorpus() {
		got, err := DecodeBorrowed(refEncode(m))
		if err != nil {
			t.Fatalf("%v: DecodeBorrowed rejected a well-formed frame: %v", m.Kind, err)
		}
		if owned := got.Clone(); !reflect.DeepEqual(owned, m) {
			t.Errorf("%v: decode differs\n got %+v\nwant %+v", m.Kind, owned, m)
		}
	}
	bad := [][]byte{
		nil,
		{},
		{1, 0},
		{99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // unknown kind
		{1, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},  // bad flags
		{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 'k'}, // truncated key
		append(make([]byte, 12), 0xFF),            // trailing garbage window
	}
	for i, p := range bad {
		if _, err := DecodeBorrowed(p); err == nil {
			t.Errorf("bad frame %d (%x) decoded", i, p)
		}
	}
}

func TestAppendEncodeErrorLeavesDstUnchanged(t *testing.T) {
	dst := []byte("stable")
	out, err := AppendEncode(dst, Message{Kind: KindReadReq, Key: string(make([]byte, maxKeyLen+1))})
	if err == nil {
		t.Fatal("oversized key accepted")
	}
	if &out[0] != &dst[0] || string(out) != "stable" {
		t.Fatalf("dst changed on error: %q", out)
	}
}

func TestDecodeBorrowedAliasesFrame(t *testing.T) {
	frame, err := AppendEncode(nil, Message{Kind: KindWriteProp, Key: "k", Value: []byte("aaaa"), Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeBorrowed(frame)
	if err != nil {
		t.Fatal(err)
	}
	cl := m.Clone()
	// Mutating the frame must show through the borrowed view (that is the
	// point: no copy happened) but never through a Clone.
	frame[len(frame)-3] ^= 0xFF // last value byte (the 2-byte window length trails it)
	if m.Value[3] == 'a' {
		t.Fatal("borrowed Value did not alias the frame — a copy happened")
	}
	if string(cl.Value) != "aaaa" || cl.Key != "k" {
		t.Fatalf("Clone shares memory with the frame: %+v", cl)
	}
	// The 3-index slice must stop appends from growing into the frame.
	if cap(m.Value) != len(m.Value) {
		t.Fatalf("borrowed Value cap %d > len %d: appends could clobber the frame", cap(m.Value), len(m.Value))
	}
}

// TestAppendEncodeBatchMatchesEncodeBatch pins AppendEncodeBatch to the
// batch frame layout, checks the frame round-trips, and checks the error
// path leaves dst unchanged.
func TestAppendEncodeBatchMatchesEncodeBatch(t *testing.T) {
	batches := []Batch{
		{Kind: KindMultiReadReq, ID: 5, Keys: []string{"a", "bb", "ccc"}, Versions: []uint64{0, 7, 9}},
		{Kind: KindMultiReadResp, ID: 1 << 40, Entries: []Entry{
			{Key: "a", Value: []byte("v1"), Version: 1},
			{Key: "bb", Version: 2, NotModified: true},
			{Key: "ccc", Value: []byte("v3"), Version: 3, Allocate: true, Window: win("rrrwr")},
		}},
		{Kind: KindResyncReq, Keys: []string{"x"}, Versions: []uint64{5}},
		{Kind: KindResyncResp, Entries: []Entry{{Key: "x", Version: 5, NotModified: true}}},
	}
	for _, b := range batches {
		want := refEncodeBatch(b)
		got, err := AppendEncodeBatch(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%v: AppendEncodeBatch differs from the frame layout\n got %x\nwant %x", b.Kind, got, want)
		}
		rt, err := DecodeBatch(got)
		if err != nil {
			t.Fatal(err)
		}
		if len(rt.Entries) != len(b.Entries) || len(rt.Keys) != len(b.Keys) {
			t.Errorf("%v: round trip lost items", b.Kind)
		}
	}
	// Error path leaves dst unchanged.
	dst := []byte("keep")
	out, err := AppendEncodeBatch(dst, Batch{Kind: KindReadReq})
	if err == nil || string(out) != "keep" {
		t.Fatalf("non-batch kind: err=%v out=%q", err, out)
	}
}

// TestAppendEncodeAllocs pins the pooled encode path at zero allocations,
// mirroring the sim-kernel and obs pins: the replica send paths rely on
// AppendEncode into a warm pooled buffer costing nothing.
func TestAppendEncodeAllocs(t *testing.T) {
	m := Message{Kind: KindWriteProp, Key: "hot-key", Value: bytes.Repeat([]byte{7}, 128), Version: 12345}
	buf := GetBuf()
	defer PutBuf(buf)
	// Warm the buffer to capacity once.
	b, err := AppendEncode(buf.B[:0], m)
	if err != nil {
		t.Fatal(err)
	}
	buf.B = b
	allocs := testing.AllocsPerRun(200, func() {
		out, err := AppendEncode(buf.B[:0], m)
		if err != nil {
			t.Fatal(err)
		}
		buf.B = out
	})
	if allocs != 0 {
		t.Fatalf("pooled AppendEncode allocated %.1f times per run, want 0", allocs)
	}
}

// TestDecodeBorrowedAllocs pins the zero-copy decode at zero allocations,
// for the hot-path shape (reads, writes, liveness) and for a window
// handoff alike: the window is a value copied out of the frame.
func TestDecodeBorrowedAllocs(t *testing.T) {
	for _, m := range []Message{
		{Kind: KindWriteProp, Key: "hot-key", Value: bytes.Repeat([]byte{7}, 128), Version: 12345},
		{Kind: KindDeleteReq, Key: "hot-key", Window: win("rwrwrwrww")},
	} {
		frame, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			back, err := DecodeBorrowed(frame)
			if err != nil || back.Kind != m.Kind || back.Window != m.Window {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("DecodeBorrowed(%v) allocated %.1f times per run, want 0", m.Kind, allocs)
		}
	}
}

// TestEncodePooledRoundTripAllocs pins the full steady-state frame cycle —
// get buffer, encode, borrow-decode, release — at zero allocations.
func TestEncodePooledRoundTripAllocs(t *testing.T) {
	m := Message{Kind: KindReadResp, Key: "k", Value: []byte("v"), Version: 2}
	// Warm the pool.
	warm := GetBuf()
	b, _ := AppendEncode(warm.B[:0], m)
	warm.B = b
	PutBuf(warm)
	allocs := testing.AllocsPerRun(200, func() {
		buf := GetBuf()
		out, err := AppendEncode(buf.B[:0], m)
		if err != nil {
			t.Fatal(err)
		}
		buf.B = out
		if _, err := DecodeBorrowed(buf.B); err != nil {
			t.Fatal(err)
		}
		PutBuf(buf)
	})
	if allocs != 0 {
		t.Fatalf("pooled frame cycle allocated %.1f times per run, want 0", allocs)
	}
}
