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
		{Kind: KindResyncReq, Epoch: 3, Keys: []string{"a", "c", "d"}, Versions: []uint64{4, 0, 9},
			Windows: []core.Window{win("rrwrr"), {}, core.NewWindow(core.MaxWindow, sched.Read)}},
		{Kind: KindMultiReadReq, ID: 77, Keys: []string{"a"}, Versions: []uint64{0}, Windows: []core.Window{win("r")}},
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
		if len(back.Windows) != len(b.Windows) {
			t.Fatalf("batch %d: %d windows back, want %d", i, len(back.Windows), len(b.Windows))
		}
		for j := range b.Windows {
			if back.Windows[j] != b.Windows[j] {
				t.Fatalf("batch %d window %d: %v, want %v", i, j, back.Windows[j], b.Windows[j])
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
	big := make([]string, MaxBatch+1)
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

// TestBatchGoldenBytes: a read request that declares no windows encodes
// to the bytes it did before windows could be declared, and one that
// declares them sets the key count's top bit, which an older decoder
// refuses as a count past MaxBatch.
func TestBatchGoldenBytes(t *testing.T) {
	for _, c := range []struct {
		b    Batch
		want string
	}{
		{Batch{Kind: KindMultiReadReq, ID: 300, Keys: []string{"k1", "k02"}, Versions: []uint64{3, 0}},
			"14030000000000000000ac02020002006b31030000000000000003006b303200000000000000000000"},
		{Batch{Kind: KindResyncReq, Epoch: 5, Keys: []string{"a", "bc"}, Versions: []uint64{1, 258}},
			"1603050000000000000000020001006101000000000000000200626302010000000000000000"},
		{Batch{Kind: KindResyncReq, Epoch: 5, Keys: []string{"a", "bc"}, Versions: []uint64{1, 258},
			Windows: []core.Window{win("rrwrr"), {}}},
			"1603050000000000000000028001006101000000000000000504020062630201000000000000000000"},
	} {
		frame, err := AppendEncodeBatch(nil, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(frame); got != c.want {
			t.Errorf("%v with %d windows encodes to\n%s, want\n%s", c.b.Kind, len(c.b.Windows), got, c.want)
		}
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

// sameBatch reports the first field in which a and b differ, "" when
// none does.
func sameBatch(a, b Batch) string {
	switch {
	case a.Kind != b.Kind || a.Epoch != b.Epoch || a.ID != b.ID:
		return "header"
	case len(a.Keys) != len(b.Keys) || len(a.Versions) != len(b.Versions) || len(a.Windows) != len(b.Windows) ||
		len(a.Entries) != len(b.Entries):
		return "lengths"
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] || a.Versions[i] != b.Versions[i] {
			return "key"
		}
	}
	for i := range a.Windows {
		if a.Windows[i] != b.Windows[i] {
			return "window"
		}
	}
	for i := range a.Entries {
		x, y := a.Entries[i], b.Entries[i]
		if x.Key != y.Key || !bytes.Equal(x.Value, y.Value) || (x.Value == nil) != (y.Value == nil) ||
			x.Version != y.Version || x.Allocate != y.Allocate || x.NotModified != y.NotModified || x.Window != y.Window {
			return "entry"
		}
	}
	return ""
}

// FuzzDecodeBatch mirrors FuzzDecode for the batch codec, with one seed
// per batch kind: the borrowed decode and the cloning one agree field by
// field on every frame, and an accepted frame re-encodes to a frame that
// decodes to the same batch. Every seed re-encodes to its own bytes.
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
		b, err := DecodeBatchBorrowed(seed)
		if err != nil {
			f.Fatal(err)
		}
		if re, err := AppendEncodeBatch(nil, b); err != nil || !bytes.Equal(re, seed) {
			f.Fatalf("seed %v re-encoded to %x (%v), want %x", k, re, err, seed)
		}
		f.Add(seed)
	}
	// Read requests that declare windows: a resync's, and the joint read
	// a relay forwards for it.
	for _, k := range []Kind{KindMultiReadReq, KindResyncReq} {
		seed, err := AppendEncodeBatch(nil, Batch{Kind: k, Epoch: 2, ID: uint64(k),
			Keys: []string{"k", "j"}, Versions: []uint64{3, 0}, Windows: []core.Window{win("rrwrr"), {}}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte{byte(KindMultiReadReq), 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, frame []byte) {
		b, err := DecodeBatchBorrowed(frame)
		owned, oerr := DecodeBatch(frame)
		if (err == nil) != (oerr == nil) {
			t.Fatalf("borrowed decode: %v, cloning decode: %v", err, oerr)
		}
		if err != nil {
			return
		}
		if d := sameBatch(b, owned); d != "" {
			t.Fatalf("the borrowed and cloning decodes differ in %s: %+v vs %+v", d, b, owned)
		}
		re, err := AppendEncodeBatch(nil, b)
		if err != nil {
			t.Fatalf("accepted batch failed to re-encode: %v", err)
		}
		back, err := DecodeBatchBorrowed(re)
		if err != nil {
			t.Fatalf("re-encoded batch failed to decode: %v", err)
		}
		if d := sameBatch(b, back); d != "" {
			t.Fatalf("round trip diverged in %s: %+v vs %+v", d, b, back)
		}
	})
}

// TestDecodeBatchBorrowedAliasesFrame: the borrowed decode's keys and
// values alias the frame, values capped so an append cannot grow into it,
// while DecodeBatch's clone keeps its bytes when the frame is reused.
func TestDecodeBatchBorrowedAliasesFrame(t *testing.T) {
	in := Batch{Kind: KindMultiReadResp, ID: 3, Entries: []Entry{
		{Key: "key", Value: []byte("aaaa"), Version: 1},
		{Key: "two", Value: []byte("bbbb"), Version: 2},
	}}
	frame, err := AppendEncodeBatch(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeBatchBorrowed(frame)
	if err != nil {
		t.Fatal(err)
	}
	owned, err := DecodeBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	if v := b.Entries[0].Value; cap(v) != len(v) {
		t.Fatalf("borrowed value cap %d > len %d: appends could clobber the frame", cap(v), len(v))
	}
	for i := range frame {
		frame[i] = 'x'
	}
	if b.Entries[0].Key == "key" || string(b.Entries[1].Value) == "bbbb" {
		t.Fatal("the borrowed batch did not alias the frame: a copy happened")
	}
	if d := sameBatch(owned, in); d != "" {
		t.Fatalf("the cloned batch changed with the frame, in %s: %+v", d, owned)
	}
}

// TestDecodeBatchBorrowedAllocs pins the borrowed decode at one array per
// field it fills, whatever the number of keys or entries.
func TestDecodeBatchBorrowedAllocs(t *testing.T) {
	for _, n := range []int{1, 64, 1024} {
		req := Batch{Kind: KindResyncReq, Keys: make([]string, n), Versions: make([]uint64, n)}
		resp := Batch{Kind: KindResyncResp, Entries: make([]Entry, n)}
		for i := 0; i < n; i++ {
			req.Keys[i] = string(rune('a' + i%26))
			resp.Entries[i] = Entry{Key: req.Keys[i], Value: []byte("value"), Version: uint64(i)}
		}
		declared := req
		declared.Windows = make([]core.Window, n)
		for i := range declared.Windows {
			declared.Windows[i] = core.NewWindow(1+i%core.MaxWindow, sched.Read)
		}
		for _, c := range []struct {
			b    Batch
			want float64
		}{{req, 2}, {declared, 3}, {resp, 1}} {
			frame, err := AppendEncodeBatch(nil, c.b)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := DecodeBatchBorrowed(frame); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != c.want {
				t.Errorf("DecodeBatchBorrowed(%v of %d) allocated %.0f times, want %.0f", c.b.Kind, n, allocs, c.want)
			}
		}
	}
}

// FuzzDeclaredWindow builds a one-key request whose declared window
// claims size bits over the packed bytes given, cut after cut bytes of
// the window's part of the frame: the decoder accepts it exactly when the
// size is a legal window (or 0, none declared) and the frame holds its
// bytes exactly, and then returns that window.
func FuzzDeclaredWindow(f *testing.F) {
	f.Add(uint8(5), []byte{0x04}, 2)
	f.Add(uint8(0), []byte{}, 1)
	f.Add(uint8(128), bytes.Repeat([]byte{0xff}, 16), 17)
	f.Add(uint8(129), bytes.Repeat([]byte{0xff}, 17), 18)
	f.Add(uint8(255), bytes.Repeat([]byte{0}, 32), 33)
	f.Add(uint8(9), []byte{0x01}, 2)
	f.Fuzz(func(t *testing.T, size uint8, packed []byte, cut int) {
		frame, err := AppendEncodeBatch(nil, Batch{Kind: KindResyncReq, Keys: []string{"k"}, Versions: []uint64{1}})
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(frame[len(frame)-15:], 1|declaresWindows)
		frame = frame[:len(frame)-2] // the entry count follows the window
		tail := append([]byte{size}, packed...)
		if cut >= 0 && cut < len(tail) {
			tail = tail[:cut]
		}
		frame = append(append(frame, tail...), 0, 0)
		b, err := DecodeBatchBorrowed(frame)
		legal := int(size) <= core.MaxWindow && len(tail) == 1+(int(size)+7)/8
		if (err == nil) != legal {
			t.Fatalf("size %d over %d packed bytes: decode error %v, legal %v", size, len(tail)-1, err, legal)
		}
		if err != nil {
			return
		}
		want, err := core.UnpackWindow(int(size), tail[1:])
		if err != nil || len(b.Windows) != 1 || b.Windows[0] != want {
			t.Fatalf("size %d: decoded %v, want %v (%v)", size, b.Windows, want, err)
		}
	})
}
