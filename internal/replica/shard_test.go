package replica

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/stats"
	"mobirep/internal/transport"
	"mobirep/internal/wire"
)

// The routing functions are pure functions of their inputs — no per-boot
// seed — so a session or key routes to the same shard on every restart.
// The golden tables below pin that: a change to either hash silently
// re-homes every session in a fleet, which these tests turn into a loud
// failure.

func TestSessionShardGoldens(t *testing.T) {
	cases := []struct {
		id   uint64
		n    int
		want int
	}{
		{1, 2, 1}, {1, 8, 5}, {1, 1024, 485},
		{2, 2, 0}, {2, 8, 2}, {2, 1024, 138},
		{3, 2, 0}, {3, 8, 0}, {3, 1024, 240},
		{7, 2, 0}, {7, 8, 4}, {7, 1024, 788},
		{64, 2, 1}, {64, 8, 3}, {64, 1024, 467},
		{1000, 2, 1}, {1000, 8, 7}, {1000, 1024, 727},
		{123456789, 2, 0}, {123456789, 8, 0}, {123456789, 1024, 352},
		{1 << 40, 2, 0}, {1 << 40, 8, 0}, {1 << 40, 1024, 1016},
	}
	for _, c := range cases {
		if got := sessionShard(c.id, c.n); got != c.want {
			t.Errorf("sessionShard(%d, %d) = %d, want %d", c.id, c.n, got, c.want)
		}
		// Stability: the same input re-routed later (a "restart") cannot
		// move.
		if again := sessionShard(c.id, c.n); again != c.want {
			t.Errorf("sessionShard(%d, %d) unstable: %d then %d", c.id, c.n, c.want, again)
		}
	}
}

func TestKeyShardGoldens(t *testing.T) {
	cases := []struct {
		key  string
		n    int
		want int
	}{
		{"", 2, 1}, {"", 8, 3}, {"", 1024, 155},
		{"a", 2, 0}, {"a", 8, 0}, {"a", 1024, 248},
		{"b", 2, 1}, {"b", 8, 5}, {"b", 1024, 5},
		{"c", 2, 0}, {"c", 8, 2}, {"c", 1024, 514},
		{"hot", 2, 0}, {"hot", 8, 2}, {"hot", 1024, 42},
		{"stock/AAPL", 2, 0}, {"stock/AAPL", 8, 4}, {"stock/AAPL", 1024, 476},
		{"user:12345:inbox", 2, 0}, {"user:12345:inbox", 8, 2}, {"user:12345:inbox", 1024, 842},
	}
	for _, c := range cases {
		if got := keyShard(c.key, c.n); got != c.want {
			t.Errorf("keyShard(%q, %d) = %d, want %d", c.key, c.n, got, c.want)
		}
		if again := keyShard(c.key, c.n); again != c.want {
			t.Errorf("keyShard(%q, %d) unstable: %d then %d", c.key, c.n, c.want, again)
		}
	}
}

// TestShardRoutingRange: every routing result is a valid shard index for
// every power-of-two count, and one shard degenerates to always-0.
func TestShardRoutingRange(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 64, 1024, 4096} {
		for id := uint64(0); id < 1000; id++ {
			got := sessionShard(id, n)
			if got < 0 || got >= n {
				t.Fatalf("sessionShard(%d, %d) = %d out of range", id, n, got)
			}
			if n == 1 && got != 0 {
				t.Fatalf("sessionShard(%d, 1) = %d, want 0", id, got)
			}
		}
		for i := 0; i < 1000; i++ {
			key := fmt.Sprintf("key-%d", i)
			got := keyShard(key, n)
			if got < 0 || got >= n {
				t.Fatalf("keyShard(%q, %d) = %d out of range", key, n, got)
			}
		}
	}
}

// TestShardRoutingUniformity bounds the distribution skew: sequential
// attach IDs and formatted keys — the realistic worst cases for a weak
// hash, being nearly-identical bit patterns — must spread within ±8% of
// the ideal per-shard share. The binomial standard deviation at this
// scale is ~0.8% of the share, so 8% is ~10 sigma: a real hash defect
// fails it, noise never does.
func TestShardRoutingUniformity(t *testing.T) {
	const (
		n       = 8
		total   = 100000
		ideal   = total / n
		slack   = ideal * 8 / 100
		minSeen = ideal - slack
		maxSeen = ideal + slack
	)
	var byID [n]int
	for id := uint64(1); id <= total; id++ {
		byID[sessionShard(id, n)]++
	}
	for sh, c := range byID {
		if c < minSeen || c > maxSeen {
			t.Errorf("sessionShard: shard %d got %d of %d ids, want %d±%d", sh, c, total, ideal, slack)
		}
	}
	var byKey [n]int
	for i := 0; i < total; i++ {
		byKey[keyShard(fmt.Sprintf("key-%d", i), n)]++
	}
	for sh, c := range byKey {
		if c < minSeen || c > maxSeen {
			t.Errorf("keyShard: shard %d got %d of %d keys, want %d±%d", sh, c, total, ideal, slack)
		}
	}
}

func TestNewServerShardsValidation(t *testing.T) {
	for _, bad := range []int{-1, 3, 6, 12, 1000, 8192} {
		if _, err := NewServerShards(db.NewStore(), Static2(), bad); err == nil {
			t.Errorf("NewServerShards accepted shard count %d", bad)
		}
	}
	for _, good := range []int{1, 2, 8, 256, 4096} {
		srv, err := NewServerShards(db.NewStore(), Static2(), good)
		if err != nil {
			t.Errorf("NewServerShards rejected shard count %d: %v", good, err)
		} else if srv.Shards() != good {
			t.Errorf("Shards() = %d, want %d", srv.Shards(), good)
		}
	}
	srv, err := NewServer(db.NewStore(), Static2())
	if err != nil {
		t.Fatal(err)
	}
	if n := srv.Shards(); !validShardCount(n) {
		t.Errorf("automatic shard count %d is not a valid power of two", n)
	}
}

// checkKeyIndex verifies every shard's key index against the sessions it
// serves, under the shard token: each live (session, key) state names the
// slot that holds it, each slot names a live session of this shard whose
// state for the key is the slot's handle, and no key keeps an empty slot
// list. It returns the number of slots seen.
func checkKeyIndex(t *testing.T, srv *Server) int {
	t.Helper()
	slots := 0
	for _, sh := range srv.shards {
		sh.enter()
		for sess := range sh.sessions {
			for key, st := range sess.items {
				subs := sh.index[key]
				if int(st.idx) >= len(subs) || subs[st.idx].st != st || subs[st.idx].sess != sess {
					t.Errorf("shard %d: session %d state for %q says slot %d, which does not hold it (%d slots)",
						sh.id, sess.id, key, st.idx, len(subs))
				}
			}
		}
		for key, subs := range sh.index {
			if len(subs) == 0 {
				t.Errorf("shard %d: key %q keeps an empty slot list", sh.id, key)
			}
			for i, sb := range subs {
				slots++
				if _, live := sh.sessions[sb.sess]; !live || sb.sess.detached || sb.sess.shard != sh {
					t.Errorf("shard %d: %q slot %d names session %d, which is not a live session of this shard",
						sh.id, key, i, sb.sess.id)
				}
				if sb.sess.items[key] != sb.st || int(sb.st.idx) != i {
					t.Errorf("shard %d: %q slot %d handle is not session %d's state for the key (idx %d)",
						sh.id, key, i, sb.sess.id, sb.st.idx)
				}
			}
		}
		sh.exit()
	}
	return slots
}

// TestSessionKeysSameShardInvariant pins the ownership model: a session
// and ALL per-key state it ever accumulates live on the session's shard,
// and the shard's key index stays exact — every state names its own slot,
// every slot a live session — through seeded attach / touch / detach /
// reaper churn, down to empty once every session is gone.
func TestSessionKeysSameShardInvariant(t *testing.T) {
	srv, err := NewServerShards(db.NewStore(), SW(3), 4)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1000000, 0)
	now := base
	srv.SetClock(func() time.Time { return now })
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		if _, err := srv.Write(keys[i], []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	touch := func(sess *Session, key string) {
		req, _ := wire.AppendEncode(nil, wire.Message{Kind: wire.KindReadReq, Key: key})
		sess.onFrame(req)
	}
	sessions := make([]*Session, 32)
	for i := range sessions {
		sessions[i] = srv.Attach(nullLink{})
		// Each session reads a sliding window of keys, so every shard's
		// sessions collectively touch keys that route (by keyShard) to
		// every other shard — ownership must still follow the session.
		for k := 0; k < 5; k++ {
			touch(sessions[i], keys[(i+k)%len(keys)])
		}
	}
	for i, sess := range sessions {
		if want := sessionShard(sess.id, srv.Shards()); sess.shard.id != want {
			t.Fatalf("session %d placed on shard %d, routing says %d", i, sess.shard.id, want)
		}
	}
	if got := checkKeyIndex(t, srv); got != len(sessions)*5 {
		t.Fatalf("index holds %d slots, want %d (one per session per key touched)", got, len(sessions)*5)
	}

	// Seeded churn: swap-removes land in the middle of slot lists, states
	// move slots, sessions age out in bulk; the index must stay exact
	// after every step.
	rng := stats.NewRNG(7)
	for step := 0; step < 400 && !t.Failed(); step++ {
		switch op := rng.Intn(10); {
		case op < 3:
			sessions = append(sessions, srv.Attach(nullLink{}))
		case op < 7 && len(sessions) > 0:
			touch(sessions[rng.Intn(len(sessions))], keys[rng.Intn(len(keys))])
		case op < 9 && len(sessions) > 0:
			i := rng.Intn(len(sessions))
			sessions[i].Detach()
			// A straggler frame after the detach must not re-enter the index.
			touch(sessions[i], keys[rng.Intn(len(keys))])
			sessions[i].Detach()
			sessions = append(sessions[:i], sessions[i+1:]...)
		default:
			// Everyone not heard from since the last sweep ages out.
			now = now.Add(time.Minute)
			for _, sess := range sessions {
				if rng.Bernoulli(0.8) {
					touch(sess, keys[rng.Intn(len(keys))])
				}
			}
			srv.ExpireIdle(30 * time.Second)
			live := sessions[:0]
			for _, sess := range sessions {
				if !sess.detached {
					live = append(live, sess)
				}
			}
			sessions = live
		}
		checkKeyIndex(t, srv)
	}

	// Detach must unwind the index completely.
	for _, sess := range sessions {
		sess.Detach()
	}
	for _, sh := range srv.shards {
		sh.enter()
		if len(sh.index) != 0 {
			t.Errorf("shard %d index retains %d keys after all detaches", sh.id, len(sh.index))
		}
		sh.exit()
	}
}

// TestDetachKeepsBoundedSpares pins that what departed sessions leave for
// reuse is bounded, not their peak: sixteen sessions on two shards hold
// 1024 keys each, more states than a shard keeps. 768 keys are held by
// every session, so their slot lists outgrow spareSlotCap; 256 are each
// session's own. Once all have detached, every shard's key index is
// empty, its memory account is back to zero, and it keeps spareRecords
// states — the bound, so reuse is on — and only empty slot lists of at
// most spareSlotCap slots.
func TestDetachKeepsBoundedSpares(t *testing.T) {
	const sessions, shared, own = 16, 768, 256
	srv, err := NewServerShards(db.NewStore(), SW(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	var all []*Session
	for i := 0; i < sessions; i++ {
		sess := srv.Attach(nullLink{})
		all = append(all, sess)
		sess.shard.enter()
		for k := 0; k < shared; k++ {
			sess.state(fmt.Sprintf("key-%d", k))
		}
		for k := 0; k < own; k++ {
			sess.state(fmt.Sprintf("own-%d-%d", i, k))
		}
		sess.shard.exit()
	}
	for _, sess := range all {
		sess.Detach()
	}
	for _, sh := range srv.shards {
		sh.enter()
		if len(sh.index) != 0 {
			t.Errorf("shard %d index retains %d keys after all detaches", sh.id, len(sh.index))
		}
		if m := sh.mem.Load(); m != 0 {
			t.Errorf("shard %d memory account is %d bytes after all detaches, want 0", sh.id, m)
		}
		if n := len(sh.spareStates); n != spareRecords {
			t.Errorf("shard %d keeps %d states, want the bound %d", sh.id, n, spareRecords)
		}
		if n := len(sh.spareSlots); n == 0 || n > spareRecords {
			t.Errorf("shard %d keeps %d slot lists, want 1 to %d", sh.id, n, spareRecords)
		}
		for _, subs := range sh.spareSlots {
			if len(subs) != 0 || cap(subs) > spareSlotCap {
				t.Fatalf("shard %d keeps a slot list of %d slots, %d capacity; want empty, at most %d",
					sh.id, len(subs), cap(subs), spareSlotCap)
			}
		}
		if len(sh.spareItems) != 0 {
			t.Errorf("shard %d keeps a session map of %d entries, want it empty", sh.id, len(sh.spareItems))
		}
		sh.exit()
	}
}

// fanOrderLink appends its session's ordinal to a shared log on every
// frame it is handed, recording the order a fan-out reaches the sessions.
type fanOrderLink struct {
	ord int
	log *[]int
}

func (l fanOrderLink) Send([]byte) error            { *l.log = append(*l.log, l.ord); return nil }
func (l fanOrderLink) SetHandler(transport.Handler) {}
func (l fanOrderLink) Close() error                 { return nil }

// TestFanOutOrderDeterministic pins that the key index is ordered by
// history, not by Go map iteration: two servers fed the same seeded
// attach / read / detach / write sequence hand their fan-out frames to the
// sessions in exactly the same order.
func TestFanOutOrderDeterministic(t *testing.T) {
	run := func() []int {
		srv, err := NewServerShards(db.NewStore(), Static2(), 2)
		if err != nil {
			t.Fatal(err)
		}
		keys := []string{"a", "b", "c"}
		for _, k := range keys {
			if _, err := srv.Write(k, []byte("v0")); err != nil {
				t.Fatal(err)
			}
		}
		var log []int
		var sessions []*Session
		rng := stats.NewRNG(11)
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				sessions = append(sessions, srv.Attach(fanOrderLink{ord: len(sessions), log: &log}))
			case op < 6 && len(sessions) > 0:
				req, _ := wire.AppendEncode(nil, wire.Message{Kind: wire.KindReadReq, Key: keys[rng.Intn(len(keys))]})
				sessions[rng.Intn(len(sessions))].onFrame(req)
			case op < 7 && len(sessions) > 0:
				sessions[rng.Intn(len(sessions))].Detach()
			default:
				log = append(log, -1) // write boundary
				if _, err := srv.Write(keys[rng.Intn(len(keys))], []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
		}
		return log
	}
	a, b := run(), run()
	if len(a) < 1000 {
		t.Fatalf("only %d log entries — the sequence barely fans out", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two servers fed the same sequence fanned out in different session orders")
	}
}

// closeCountLink records Close calls, for proving the reaper closes each
// reaped link exactly once.
type closeCountLink struct {
	closes int
}

func (l *closeCountLink) Send([]byte) error            { return nil }
func (l *closeCountLink) SetHandler(transport.Handler) {}
func (l *closeCountLink) Close() error                 { l.closes++; return nil }

// TestExpireIdleShardBoundaries pins the reaper's shard correctness: the
// per-shard scans must together reap exactly the idle sessions — no
// session missed because it lives on a later shard, none double-counted,
// and a session detached concurrently is not counted at all. The session
// gauges (global and per-shard occupancy) must agree with Sessions()
// throughout.
func TestExpireIdleShardBoundaries(t *testing.T) {
	srv, err := NewServerShards(db.NewStore(), Static2(), 4)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1000000, 0)
	now := base
	srv.SetClock(func() time.Time { return now })

	gBefore := gSessions.Load()
	// The per-shard occupancy gauges are process-global series shared by
	// every Server with that shard id, so compare deltas.
	occBefore := make([]int64, srv.Shards())
	for i, sh := range srv.shards {
		occBefore[i] = sh.occupancy.Load()
	}
	const n = 32
	links := make([]*closeCountLink, n)
	sessions := make([]*Session, n)
	perShard := make([]int, srv.Shards())
	for i := range sessions {
		links[i] = &closeCountLink{}
		sessions[i] = srv.Attach(links[i])
		perShard[sessions[i].shard.id]++
	}
	for sh := 0; sh < srv.Shards(); sh++ {
		if perShard[sh] == 0 {
			t.Fatalf("shard %d got no sessions out of %d — reaper boundaries untested", sh, n)
		}
	}
	checkGauges := func(label string, want int) {
		t.Helper()
		if got := srv.Sessions(); got != want {
			t.Fatalf("%s: Sessions() = %d, want %d", label, got, want)
		}
		if got := gSessions.Load() - gBefore; got != int64(want) {
			t.Fatalf("%s: global sessions gauge moved by %d, want %d", label, got, want)
		}
		sum := 0
		for sh, c := range srv.ShardSessions() {
			if c != len(srv.shards[sh].sessions) {
				t.Fatalf("%s: ShardSessions()[%d] = %d, shard map has %d", label, sh, c, len(srv.shards[sh].sessions))
			}
			if got := srv.shards[sh].occupancy.Load() - occBefore[sh]; got != int64(c) {
				t.Fatalf("%s: shard %d occupancy gauge moved by %d, want %d", label, sh, got, c)
			}
			sum += c
		}
		if sum != want {
			t.Fatalf("%s: per-shard counts sum to %d, want %d", label, sum, want)
		}
	}
	checkGauges("after attach", n)

	// Half the clients (even indices) stay live by pinging after the
	// clock advances; the odd half go silent.
	now = base.Add(10 * time.Minute)
	ping, _ := wire.AppendEncode(nil, wire.Message{Kind: wire.KindPing, Version: 1})
	for i := 0; i < n; i += 2 {
		sessions[i].onFrame(ping)
	}
	// One silent session is detached explicitly before the reaper runs:
	// the reaper must not count (or re-close) it.
	sessions[1].Detach()

	if got := srv.ExpireIdle(5 * time.Minute); got != n/2-1 {
		t.Fatalf("ExpireIdle reaped %d, want %d (idle half minus the pre-detached one)", got, n/2-1)
	}
	checkGauges("after reap", n/2)
	for i := range sessions {
		wantCloses := 0
		if i%2 == 1 && i != 1 {
			wantCloses = 1
		}
		if links[i].closes != wantCloses {
			t.Fatalf("session %d link closed %d times, want %d", i, links[i].closes, wantCloses)
		}
	}
	// Idempotence: nothing left to reap at the same cutoff.
	if got := srv.ExpireIdle(5 * time.Minute); got != 0 {
		t.Fatalf("second ExpireIdle reaped %d, want 0", got)
	}
	// The surviving half ages out in turn — sessions on every shard, so
	// a scan that stopped at the first shard would under-reap.
	now = now.Add(10 * time.Minute)
	if got := srv.ExpireIdle(5 * time.Minute); got != n/2 {
		t.Fatalf("final ExpireIdle reaped %d, want %d", got, n/2)
	}
	checkGauges("after final reap", 0)
}
