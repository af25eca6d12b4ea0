package wire

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary frames to the decoder: it must never panic,
// and any frame it accepts must re-encode/re-decode to the same message
// (decode is a retraction of encode on its image). Every singleton kind
// gets a seed with every field set, request id included, so a kind added
// to the range is seeded by construction.
func FuzzDecode(f *testing.F) {
	for k := KindReadReq; k <= KindReadFail; k++ {
		frame, err := AppendEncode(nil, Message{Kind: k, Key: "key", Value: []byte("value"),
			Version: 7, Allocate: true, Window: win("rwrwr"), ID: uint64(k) << 10})
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
			m2.Allocate != m.Allocate || m2.ID != m.ID || !bytes.Equal(m2.Value, m.Value) ||
			m2.Window.String() != m.Window.String() {
			t.Fatalf("round trip diverged: %+v vs %+v", m, m2)
		}
	})
}
