package replica

// Overload protection for the stationary computer. The paper assumes an
// SC that can always absorb its mobile clients' traffic; at fleet scale
// that assumption breaks in three ways, each with its own bound here:
//
//   - Too many clients: TryAttach refuses attaches past MaxSessions with
//     a Busy("full") frame instead of accepting state it cannot afford.
//   - Too many at once: one server-wide token bucket caps the attach rate,
//     so a flash crowd is smeared out with Busy("rate") refusals rather
//     than serialized into a convoy behind the shard tokens.
//   - Too much retained state: a soft memory watermark (SetMemSoftLimit)
//     sheds idle-longest sessions with Busy("shed") until the account is
//     back under budget.
//
// Every refusal and eviction answers with a wire.KindBusy frame carrying
// the reason and a retry-after hint, which the client supervisor folds
// into its backoff — "server full, come back later" is a different signal
// from "server dead". The client's normal reconnect + warm-resync path
// then repairs any state the eviction dropped. DESIGN.md §13 documents
// the model.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mobirep/internal/obs"
	"mobirep/internal/transport"
	"mobirep/internal/wire"
)

// ErrServerBusy is returned by TryAttach when admission control refuses
// the client. The link has already been answered with a Busy frame and
// closed; the caller owns nothing.
var ErrServerBusy = errors.New("replica: server busy")

// AdmissionConfig is the attach-time overload policy for TryAttach.
type AdmissionConfig struct {
	// MaxSessions caps concurrently attached sessions server-wide; at the
	// cap new attaches are refused with Busy("full"). Zero means no cap.
	MaxSessions int
	// AttachRate caps attaches per second server-wide: one token bucket
	// on the server, so the promise does not depend on the shard count.
	// Zero means no rate limit.
	AttachRate float64
	// AttachBurst is the bucket depth: how many attaches may land
	// back-to-back before the rate gates. Zero defaults to one second's
	// worth of AttachRate (minimum one).
	AttachBurst int
	// RetryAfter is the hint carried in Busy frames. Zero defaults to
	// one second.
	RetryAfter time.Duration
}

func (cfg AdmissionConfig) validate() error {
	if cfg.MaxSessions < 0 {
		return fmt.Errorf("replica: admission max sessions %d must be non-negative", cfg.MaxSessions)
	}
	if cfg.AttachRate < 0 {
		return fmt.Errorf("replica: admission attach rate %v must be non-negative", cfg.AttachRate)
	}
	if cfg.AttachBurst < 0 {
		return fmt.Errorf("replica: admission attach burst %d must be non-negative", cfg.AttachBurst)
	}
	if cfg.RetryAfter < 0 {
		return fmt.Errorf("replica: admission retry-after %v must be non-negative", cfg.RetryAfter)
	}
	return nil
}

func (cfg AdmissionConfig) retryAfter() time.Duration {
	if cfg.RetryAfter <= 0 {
		return time.Second
	}
	return cfg.RetryAfter
}

// Session-state memory accounting. The numbers are deliberate
// approximations of resident cost — map buckets, struct headers, the
// key in the session map, the entry's slot in the shard's key index —
// kept coarse so the account is cheap to maintain exactly.
const (
	// sessionMemBase is the accounted cost of an attached session before
	// it touches any key: 512, plus 32 for the send turn's flags and
	// queue header.
	sessionMemBase = 544
	// itemMemOverhead is the accounted per-(session,key) cost beyond the
	// key bytes and window slots.
	itemMemOverhead = 96
)

// itemMemCost approximates the resident bytes of one (session,key)
// protocol entry: twice the key length, one byte per window position,
// and fixed overhead. It is a coarse account and an over-estimate: the
// session map and the shard index share the store's own key, cloned
// only for a key the store has never held (the index holds a 16-byte
// {session, state} slot, not a second key), and the window is packed
// inside the 32-byte itemState, so an entry's heap footprint does not
// grow with K. The formula is kept as it is so the shedding
// watermarks, and what `mobirep-load -overload` measures, do not move.
func itemMemCost(key string, mode Mode) int64 {
	return int64(2*len(key)) + int64(mode.K) + itemMemOverhead
}

// SetAdmission installs (or, with a zero config, removes) the attach-time
// admission policy. Safe to call on a live server; attaches in flight use
// the policy they started with.
func (s *Server) SetAdmission(cfg AdmissionConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	s.admission.Store(&cfg)
	return nil
}

// Admission returns the current attach-time policy (zero if none is set).
func (s *Server) Admission() AdmissionConfig {
	if cfg := s.admission.Load(); cfg != nil {
		return *cfg
	}
	return AdmissionConfig{}
}

// TryAttach is Attach behind admission control: the session cap and the
// attach-rate bucket. A refused client is answered with a
// wire.KindBusy frame — reason "full" or "rate", retry-after hint in
// milliseconds — its link is closed, and TryAttach returns ErrServerBusy.
// No attach is ever silently dropped: the client always learns whether
// the server is full or dead. With no policy installed TryAttach is
// exactly Attach.
func (s *Server) TryAttach(link transport.Link) (*Session, error) {
	cfg := s.Admission()
	if cfg.MaxSessions > 0 {
		if n := s.nSessions.Add(1); n > int64(cfg.MaxSessions) {
			s.nSessions.Add(-1)
			s.rejectAttach(link, "full", cfg.retryAfter())
			return nil, ErrServerBusy
		}
	} else {
		s.nSessions.Add(1)
	}
	if cfg.AttachRate > 0 {
		burst := float64(cfg.AttachBurst)
		if burst < 1 {
			burst = max(cfg.AttachRate, 1)
		}
		if !s.attachBucket.take(cfg.AttachRate, burst, s.clock()()) {
			s.nSessions.Add(-1)
			s.rejectAttach(link, "rate", cfg.retryAfter())
			return nil, ErrServerBusy
		}
	}
	return s.attachSession(s.nextID.Add(1), link), nil
}

// tokenBucket is the attach-rate limiter. Its mutex is taken once per
// attach and never together with a shard token.
type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// take removes one token from the bucket, refilled at rate tokens/sec up
// to burst. The first call finds a full bucket.
func (b *tokenBucket) take(rate, burst float64, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last.IsZero() {
		b.tokens = burst
	} else {
		b.tokens = min(b.tokens+now.Sub(b.last).Seconds()*rate, burst)
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// rejectAttach answers a refused client with Busy and closes its link.
func (s *Server) rejectAttach(link transport.Link, reason string, retry time.Duration) {
	buf := encodePooled(wire.Message{
		Kind: wire.KindBusy, Key: reason, Version: uint64(retry / time.Millisecond),
	})
	_ = link.Send(buf.B)
	wire.PutBuf(buf)
	link.Close()
	switch reason {
	case "full":
		mAttachRejectedFull.Inc()
	case "rate":
		mAttachRejectedRate.Inc()
	}
	obsTr.Record(obs.EvOverload, "", reason, int64(retry/time.Millisecond), 0)
}

// Evict sheds this session: the client is told why (a Busy frame with the
// reason and retry-after hint), then the session detaches and its link
// closes. The client's supervisor treats the link death like any other —
// reconnect with backoff, warm resync — but honors the hint, so a shed
// fleet trickles back instead of stampeding. Reports whether this call
// won the detach race (a session already gone is not re-shed).
func (ss *Session) Evict(reason string, retryAfter time.Duration) bool {
	// The Busy frame goes out behind anything already posted, and the link
	// closes only after it, when the send turn drains: a client that only
	// ever saw the connection drop could not tell shedding from a crash.
	// The session detaches before the link closes, so a close callback
	// cannot win the detach race.
	ss.shard.enter()
	if ss.detached {
		ss.shard.exit()
		return false
	}
	buf := encodePooled(wire.Message{
		Kind: wire.KindBusy, Key: reason, Version: uint64(retryAfter / time.Millisecond),
	})
	turn := ss.post(buf.B, none)
	ss.closing = true
	ss.shard.exit()
	won := ss.detach()
	if turn {
		ss.release(buf.B)
	}
	wire.PutBuf(buf)
	if !won {
		return false
	}
	mSessionsShed.Inc()
	obsTr.Record(obs.EvOverload, "", reason, int64(retryAfter/time.Millisecond), 0)
	return true
}

// SetMemSoftLimit installs the soft memory watermark ShedToBudget
// enforces, in accounted bytes (see MemBytes). Zero disables shedding.
func (s *Server) SetMemSoftLimit(bytes int64) { s.memSoft.Store(bytes) }

// queuedByteser is the optional link surface (transport.TCPLink has it)
// reporting bytes parked in the link's outbox.
type queuedByteser interface{ QueuedBytes() int }

// MemBytes returns the server's accounted memory: every shard's session
// account (base + window state) plus each live link's queued outbox
// bytes, sampled now.
func (s *Server) MemBytes() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.mem.Load()
		sh.enter()
		for sess := range sh.sessions {
			if q, ok := sess.link.(queuedByteser); ok {
				n += int64(q.QueuedBytes())
			}
		}
		sh.exit()
	}
	return n
}

// ShedToBudget compares the memory account against the soft watermark
// and, while over it, evicts idle-longest sessions first — the clients
// getting the least value from their server state pay for the overload —
// returning how many were shed. Each eviction sends Busy("shed") with the
// admission retry-after hint. Run it on a ticker next to ExpireIdle; a
// server under its watermark returns 0 without touching any session.
func (s *Server) ShedToBudget() int {
	limit := s.memSoft.Load()
	if limit <= 0 {
		return 0
	}
	over := s.MemBytes() - limit
	if over <= 0 {
		return 0
	}
	type candidate struct {
		sess *Session
		seen time.Time
		cost int64
	}
	var cands []candidate
	for _, sh := range s.shards {
		sh.enter()
		for sess := range sh.sessions {
			c := candidate{sess: sess, seen: sess.lastSeen, cost: sess.memBytes}
			if q, ok := sess.link.(queuedByteser); ok {
				c.cost += int64(q.QueuedBytes())
			}
			cands = append(cands, c)
		}
		sh.exit()
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].seen.Before(cands[j].seen) })
	retry := s.Admission().retryAfter()
	shed := 0
	for _, c := range cands {
		if over <= 0 {
			break
		}
		if c.sess.Evict("shed", retry) {
			over -= c.cost
			shed++
		}
	}
	return shed
}
