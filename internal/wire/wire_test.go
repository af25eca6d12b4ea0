package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"testing/quick"

	"mobirep/internal/core"
	"mobirep/internal/sched"
)

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		KindReadReq: "read-req", KindReadResp: "read-resp",
		KindWriteProp: "write-prop", KindDeleteReq: "delete-req",
		KindPing: "ping", KindPong: "pong", KindBusy: "busy",
		KindAttachResp: "attach-resp", KindReadFail: "read-fail",
		KindMultiReadReq: "multi-read-req", KindMultiReadResp: "multi-read-resp",
		KindResyncReq: "resync-req", KindResyncResp: "resync-resp",
		Kind(0): "kind(0)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
}

func TestFrameKindPeek(t *testing.T) {
	frame, err := AppendEncode(nil, Message{Kind: KindWriteProp, Key: "x", Value: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	if k, ok := FrameKind(frame); !ok || k != KindWriteProp {
		t.Fatalf("FrameKind = %v, %v", k, ok)
	}
	batch, err := AppendEncodeBatch(nil, Batch{Kind: KindResyncReq, Keys: []string{"a"}, Versions: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if k, ok := FrameKind(batch); !ok || k != KindResyncReq {
		t.Fatalf("FrameKind(batch) = %v, %v", k, ok)
	}
	if _, ok := FrameKind(nil); ok {
		t.Fatal("FrameKind(nil) reported ok")
	}
}

func TestKindControl(t *testing.T) {
	if !KindReadReq.Control() || !KindDeleteReq.Control() {
		t.Fatal("requests should be control messages")
	}
	if KindReadResp.Control() || KindWriteProp.Control() {
		t.Fatal("responses/propagations should be data messages")
	}
}

func TestEncodeDecodeAllKinds(t *testing.T) {
	msgs := []Message{
		{Kind: KindReadReq, Key: "x"},
		{Kind: KindReadReq, Key: "x", Version: 3, ID: 1},
		{Kind: KindReadResp, Key: "x", Value: []byte("payload"), Version: 42, ID: 127},
		{Kind: KindReadResp, Key: "x", Value: []byte("p"), Version: 7, Allocate: true,
			Window: win("rwrwr"), ID: 128},
		{Kind: KindWriteProp, Key: "a key with spaces", Value: nil, Version: 1},
		{Kind: KindDeleteReq, Key: "x", Window: win("wwr")},
		{Kind: KindDeleteReq, Key: ""},
		{Kind: KindPing, Version: 17},
		{Kind: KindPong, Version: 17},
		{Kind: KindBusy, Key: "full", Version: 1500},
		{Kind: KindReadFail, Key: "x", ID: 1<<64 - 1},
		{Kind: KindWriteProp, Key: "hot", Value: bytes.Repeat([]byte{0xA5}, 300), Version: 9000},
		{Kind: KindDeleteReq, Key: "gone", Window: win("wwwwwwww")},
		{Kind: KindDeleteReq, Key: "nine-bits", Window: win("rwrwrwrwr")},
		{Kind: KindPing, Version: 1<<63 - 1},
		{Kind: KindPong},
	}
	prefix := []byte("prefix!")
	for i, m := range msgs {
		frame, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		// Appending after a prefix keeps the prefix and appends the same
		// frame bytes.
		ext, err := AppendEncode(append([]byte(nil), prefix...), m)
		if err != nil || !bytes.Equal(ext[:len(prefix)], prefix) || !bytes.Equal(ext[len(prefix):], frame) {
			t.Fatalf("msg %d: encode after a prefix gave %x (err %v), want %x + %x", i, ext, err, prefix, frame)
		}
		back, err := DecodeBorrowed(frame)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if back.Kind != m.Kind || back.Key != m.Key || back.Version != m.Version ||
			back.Allocate != m.Allocate || back.ID != m.ID {
			t.Fatalf("msg %d: %+v != %+v", i, back, m)
		}
		if !bytes.Equal(back.Value, m.Value) {
			t.Fatalf("msg %d: value %q != %q", i, back.Value, m.Value)
		}
		if back.Window.String() != m.Window.String() {
			t.Fatalf("msg %d: window %q != %q", i, back.Window, m.Window)
		}
	}
}

func TestBusyFrame(t *testing.T) {
	// Busy carries the reason in Key and the retry-after hint (ms) in
	// Version, and like Ping/Pong it is liveness traffic, not protocol cost.
	m := Message{Kind: KindBusy, Key: "shed", Version: 250}
	frame, err := AppendEncode(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if k, ok := FrameKind(frame); !ok || k != KindBusy {
		t.Fatalf("FrameKind = %v, %v", k, ok)
	}
	back, err := DecodeBorrowed(frame)
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind != KindBusy || back.Key != "shed" || back.Version != 250 {
		t.Fatalf("decoded %+v", back)
	}
	if KindBusy.Control() {
		t.Fatal("Busy must not be metered as a control message")
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	check := func(kindRaw uint8, key string, value []byte, version uint64, alloc bool, winBits []bool) bool {
		kind := Kind(kindRaw%4) + KindReadReq
		if len(key) > maxKeyLen {
			key = key[:maxKeyLen]
		}
		bits := make(sched.Schedule, len(winBits))
		for i, b := range winBits {
			if b {
				bits[i] = sched.Write
			}
		}
		m := Message{Kind: kind, Key: key, Value: value, Version: version,
			Allocate: alloc, Window: core.WindowOf(bits)}
		frame, err := AppendEncode(nil, m)
		if err != nil {
			return false
		}
		back, err := DecodeBorrowed(frame)
		if err != nil {
			return false
		}
		if len(back.Value) == 0 && len(m.Value) == 0 {
			// nil vs empty are equivalent on the wire
		} else if !bytes.Equal(back.Value, m.Value) {
			return false
		}
		return back.Kind == m.Kind && back.Key == m.Key &&
			back.Version == m.Version && back.Allocate == m.Allocate &&
			back.Window.String() == m.Window.String()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	// Truncations of a valid frame must all fail or decode to a different,
	// still-valid message — never panic.
	m := Message{Kind: KindReadResp, Key: "key", Value: []byte("value"),
		Version: 9, Allocate: true, Window: win("rrwwr")}
	frame, err := AppendEncode(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(frame); n++ {
		if _, err := DecodeBorrowed(frame[:n]); err == nil {
			t.Fatalf("decode of %d/%d bytes unexpectedly succeeded", n, len(frame))
		}
	}
	for i, p := range [][]byte{
		nil,
		{1, 0},
		{99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // unknown kind
		{1, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},  // bad flags
		{1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x80}, // truncated id
		{1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0},       // id, then no room for the key length
		{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 'k'},  // truncated key
		append(make([]byte, 12), 0xFF),             // trailing garbage window
	} {
		if _, err := DecodeBorrowed(p); err == nil {
			t.Fatalf("malformed frame %d (%x) decoded", i, p)
		}
	}
}

func TestDecodeRejectsBadKind(t *testing.T) {
	m := Message{Kind: KindReadReq, Key: "x"}
	frame, _ := AppendEncode(nil, m)
	frame[0] = 99
	if _, err := DecodeBorrowed(frame); err == nil {
		t.Fatal("bad kind accepted")
	}
	frame[0] = 0
	if _, err := DecodeBorrowed(frame); err == nil {
		t.Fatal("zero kind accepted")
	}
}

func TestDecodeRejectsBadFlags(t *testing.T) {
	m := Message{Kind: KindReadReq, Key: "x"}
	frame, _ := AppendEncode(nil, m)
	frame[1] = 0xff
	if _, err := DecodeBorrowed(frame); err == nil {
		t.Fatal("bad flags accepted")
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	m := Message{Kind: KindReadReq, Key: "x"}
	frame, _ := AppendEncode(nil, m)
	if _, err := DecodeBorrowed(append(frame, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestEncodeRejectsOversizedKey(t *testing.T) {
	if _, err := AppendEncode(nil, Message{Kind: KindReadReq, Key: string(make([]byte, maxKeyLen+1))}); err == nil {
		t.Fatal("oversized key accepted")
	}
}

// win builds a handoff window from the paper's notation, oldest first.
func win(bits string) core.Window { return core.WindowOf(sched.MustParse(bits)) }

// goldenWindow is the fixed pattern behind the golden frames below:
// request i is a write iff i%3 == 0 or i%7 == 2.
func goldenWindow(n int) core.Window {
	s := make(sched.Schedule, n)
	for i := range s {
		if i%3 == 0 || i%7 == 2 {
			s[i] = sched.Write
		}
	}
	return core.WindowOf(s)
}

// TestWindowPackingDense pins the bytes a window handoff puts on the
// wire — length, then the bits oldest first, eight per byte, LSB first,
// write = 1 — at the sizes around the byte, word and bound edges. The
// golden frames were produced by the per-bit encoder this codec replaced
// (a DeleteReq for key "k", and a MultiReadResp, epoch 2, with one
// allocating entry k=v version 3), so they are the compatibility
// contract with every peer and every frozen conformance seed. The batch
// frames are format 3's, which put a request id (0, one byte) after the
// epoch.
func TestWindowPackingDense(t *testing.T) {
	golden := []struct {
		bits           int
		message, batch string
	}{
		{1, "0400000000000000000001006b00000000010001", "15030200000000000000000000010001030000000000000001006b0100000076010001"},
		{8, "0400000000000000000001006b0000000008004d", "15030200000000000000000000010001030000000000000001006b010000007608004d"},
		{9, "0400000000000000000001006b0000000009004d00", "15030200000000000000000000010001030000000000000001006b010000007609004d00"},
		{64, "0400000000000000000001006b0000000040004d92a549b2344996", "15030200000000000000000000010001030000000000000001006b010000007640004d92a549b2344996"},
		{65, "0400000000000000000001006b0000000041004d92a549b234499600", "15030200000000000000000000010001030000000000000001006b010000007641004d92a549b234499600"},
		{128, "0400000000000000000001006b0000000080004d92a549b234499626c9d224599a244b", "15030200000000000000000000010001030000000000000001006b010000007680004d92a549b234499626c9d224599a244b"},
	}
	for _, g := range golden {
		w := goldenWindow(g.bits)
		frame, err := AppendEncode(nil, Message{Kind: KindDeleteReq, Key: "k", Window: w})
		if err != nil || hex.EncodeToString(frame) != g.message {
			t.Errorf("%d bits: message encodes to %x (err %v), want %s", g.bits, frame, err, g.message)
		}
		if back, err := DecodeBorrowed(frame); err != nil || back.Window != w {
			t.Errorf("%d bits: message decodes to window %v (err %v), want %v", g.bits, back.Window, err, w)
		}
		bframe, err := AppendEncodeBatch(nil, Batch{Kind: KindMultiReadResp, Epoch: 2, Entries: []Entry{
			{Key: "k", Value: []byte("v"), Version: 3, Allocate: true, Window: w}}})
		if err != nil || hex.EncodeToString(bframe) != g.batch {
			t.Errorf("%d bits: batch encodes to %x (err %v), want %s", g.bits, bframe, err, g.batch)
		}
		if back, err := DecodeBatch(bframe); err != nil || len(back.Entries) != 1 || back.Entries[0].Window != w {
			t.Errorf("%d bits: batch decodes to %+v (err %v), want window %v", g.bits, back, err, w)
		}
	}
}

// TestDecodeRejectsOversizedWindow pins the one bound at the decoder: a
// well-formed frame whose window is longer than core.MaxWindow is a
// decode error in both decoders, never a larger window.
func TestDecodeRejectsOversizedWindow(t *testing.T) {
	frame, err := AppendEncode(nil, Message{Kind: KindDeleteReq, Key: "k", Window: goldenWindow(core.MaxWindow)})
	if err != nil {
		t.Fatal(err)
	}
	// Patch the length to MaxWindow+1 and append the byte that carries
	// the extra bit: the frame the old codec wrote for a 129-bit window.
	at := len(frame) - core.MaxWindow/8 - 2
	binary.LittleEndian.PutUint16(frame[at:], core.MaxWindow+1)
	frame = append(frame, 1)
	if _, err := DecodeBorrowed(frame); err == nil {
		t.Error("DecodeBorrowed accepted a window past the bound")
	}
	batch, err := AppendEncodeBatch(nil, Batch{Kind: KindMultiReadResp, Entries: []Entry{
		{Key: "k", Allocate: true, Window: goldenWindow(core.MaxWindow)}}})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(batch[len(batch)-core.MaxWindow/8-2:], core.MaxWindow+1)
	if _, err := DecodeBatch(append(batch, 1)); err == nil {
		t.Error("DecodeBatch accepted a window past the bound")
	}
}
