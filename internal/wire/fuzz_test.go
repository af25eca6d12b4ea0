package wire

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary frames to the decoder: it must never panic,
// and any frame it accepts must re-encode/re-decode to the same message
// (decode is a retraction of encode on its image).
func FuzzDecode(f *testing.F) {
	seeds := []Message{
		{Kind: KindReadReq, Key: "x"},
		{Kind: KindReadResp, Key: "key", Value: []byte("value"), Version: 7,
			Allocate: true, Window: win("rwrwr")},
		{Kind: KindWriteProp, Key: "k", Value: bytes.Repeat([]byte{0xaa}, 100), Version: 1},
		{Kind: KindDeleteReq, Key: "", Window: win("www")},
	}
	for _, m := range seeds {
		frame, err := AppendEncode(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := DecodeBorrowed(frame)
		if err != nil {
			return // rejected: fine
		}
		re, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatalf("accepted message failed to re-encode: %+v: %v", m, err)
		}
		m2, err := DecodeBorrowed(re)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if m2.Kind != m.Kind || m2.Key != m.Key || m2.Version != m.Version ||
			m2.Allocate != m.Allocate || !bytes.Equal(m2.Value, m.Value) ||
			m2.Window.String() != m.Window.String() {
			t.Fatalf("round trip diverged: %+v vs %+v", m, m2)
		}
	})
}
