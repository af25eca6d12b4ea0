package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestBatchRoundTrip(t *testing.T) {
	batches := []Batch{
		{Kind: KindMultiReadReq, Keys: []string{"a", "b", "long key with spaces"}},
		{Kind: KindMultiReadReq, Keys: nil},
		{Kind: KindMultiReadReq, ID: 1, Keys: []string{"a", "bb", "ccc"}, Versions: []uint64{0, 7, 9}},
		{Kind: KindMultiReadResp, ID: 1<<64 - 1, Entries: []Entry{
			{Key: "a", Value: []byte("v1"), Version: 1},
			{Key: "b", Value: nil, Version: 0, Allocate: true, Window: win("rwr")},
			{Key: "", Value: bytes.Repeat([]byte{7}, 300), Version: 1 << 40},
		}},
		{Kind: KindMultiReadResp},
		{Kind: KindResyncReq, Keys: []string{"a", "c"}, Versions: []uint64{4, 0}},
		{Kind: KindResyncResp, Entries: []Entry{
			{Key: "a", Version: 4, NotModified: true},
			{Key: "c", Value: []byte("fresh"), Version: 9},
		}},
	}
	for i, b := range batches {
		frame, err := AppendEncodeBatch(nil, b)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if !IsBatchFrame(frame) {
			t.Fatalf("batch %d not recognized", i)
		}
		ext, err := AppendEncodeBatch([]byte("prefix!"), b)
		if err != nil || string(ext[:7]) != "prefix!" || !bytes.Equal(ext[7:], frame) {
			t.Fatalf("batch %d: encode after a prefix gave %x (err %v)", i, ext, err)
		}
		back, err := DecodeBatch(frame)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if back.Kind != b.Kind || back.ID != b.ID || len(back.Keys) != len(b.Keys) || len(back.Entries) != len(b.Entries) {
			t.Fatalf("batch %d shape: %+v vs %+v", i, back, b)
		}
		for j := range b.Keys {
			if back.Keys[j] != b.Keys[j] {
				t.Fatalf("batch %d key %d", i, j)
			}
			if len(b.Versions) > j && back.Versions[j] != b.Versions[j] {
				t.Fatalf("batch %d version hint %d", i, j)
			}
		}
		for j := range b.Entries {
			w, g := b.Entries[j], back.Entries[j]
			if w.Key != g.Key || w.Version != g.Version || w.Allocate != g.Allocate ||
				w.NotModified != g.NotModified ||
				!bytes.Equal(w.Value, g.Value) || w.Window.String() != g.Window.String() {
				t.Fatalf("batch %d entry %d: %+v vs %+v", i, j, g, w)
			}
		}
	}
}

func TestBatchRejections(t *testing.T) {
	if out, err := AppendEncodeBatch([]byte("keep"), Batch{Kind: KindReadReq}); err == nil || string(out) != "keep" {
		t.Fatalf("non-batch kind: err=%v, dst %q", err, out)
	}
	big := make([]string, maxBatch+1)
	if _, err := AppendEncodeBatch(nil, Batch{Kind: KindMultiReadReq, Keys: big}); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if _, err := DecodeBatch([]byte{byte(KindReadReq)}); err == nil {
		t.Fatal("non-batch frame decoded")
	}
	if _, err := DecodeBatch(nil); err == nil {
		t.Fatal("empty frame decoded")
	}
	// Truncations must all fail.
	frame, err := AppendEncodeBatch(nil, Batch{Kind: KindMultiReadResp, Entries: []Entry{
		{Key: "k", Value: []byte("v"), Version: 3, Allocate: true, Window: win("rrr")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(frame); n++ {
		if _, err := DecodeBatch(frame[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
	if _, err := DecodeBatch(append(frame, 9)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestIsBatchFrame(t *testing.T) {
	singleton, _ := AppendEncode(nil, Message{Kind: KindReadReq, Key: "x"})
	if IsBatchFrame(singleton) {
		t.Fatal("singleton frame classified as batch")
	}
	if IsBatchFrame(nil) {
		t.Fatal("empty frame classified as batch")
	}
}

func TestBatchProperty(t *testing.T) {
	check := func(keys []string, entryKeys []string, vals [][]byte, alloc []bool) bool {
		if len(keys) > 50 {
			keys = keys[:50]
		}
		for i, k := range keys {
			if len(k) > 100 {
				keys[i] = k[:100]
			}
		}
		b := Batch{Kind: KindMultiReadReq, Keys: keys}
		frame, err := AppendEncodeBatch(nil, b)
		if err != nil {
			return false
		}
		back, err := DecodeBatch(frame)
		if err != nil || len(back.Keys) != len(keys) {
			return false
		}
		for i := range keys {
			if back.Keys[i] != keys[i] {
				return false
			}
		}

		resp := Batch{Kind: KindMultiReadResp}
		for i, k := range entryKeys {
			if i >= 20 {
				break
			}
			if len(k) > 100 {
				k = k[:100]
			}
			e := Entry{Key: k, Version: uint64(i)}
			if i < len(vals) {
				e.Value = vals[i]
			}
			if i < len(alloc) {
				e.Allocate = alloc[i]
			}
			resp.Entries = append(resp.Entries, e)
		}
		frame, err = AppendEncodeBatch(nil, resp)
		if err != nil {
			return false
		}
		back, err = DecodeBatch(frame)
		if err != nil || len(back.Entries) != len(resp.Entries) {
			return false
		}
		for i := range resp.Entries {
			if back.Entries[i].Key != resp.Entries[i].Key ||
				back.Entries[i].Allocate != resp.Entries[i].Allocate ||
				!bytes.Equal(back.Entries[i].Value, resp.Entries[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeBatch mirrors FuzzDecode for the batch codec, with one seed
// per batch kind.
func FuzzDecodeBatch(f *testing.F) {
	for k := KindMultiReadReq; isBatchKind(k); k++ {
		seed, err := AppendEncodeBatch(nil, Batch{Kind: k, Epoch: 2, ID: uint64(k) << 10,
			Keys: []string{"k"}, Versions: []uint64{3}, Entries: []Entry{
				{Key: "k", Value: []byte("v"), Version: 3, Allocate: true, Window: win("rrrwr")},
				{Key: "j", Version: 4, NotModified: true},
			}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte{byte(KindMultiReadReq), 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, frame []byte) {
		b, err := DecodeBatch(frame)
		if err != nil {
			return
		}
		re, err := AppendEncodeBatch(nil, b)
		if err != nil {
			t.Fatalf("accepted batch failed to re-encode: %v", err)
		}
		if _, err := DecodeBatch(re); err != nil {
			t.Fatalf("re-encoded batch failed to decode: %v", err)
		}
	})
}
