package transport

// Observability instrumentation for the transport layer. Every series
// registers once against the process-wide obs registry at init; the
// send/receive hot paths then touch only pre-resolved counter handles
// (array index by message kind, two atomic adds) — no map lookups, no
// locks, no allocations.

import (
	"mobirep/internal/obs"
	"mobirep/internal/wire"
)

// kindSlot maps a wire.Kind to a small dense index for the per-kind byte
// counters. Unknown (future or malformed) kinds share the "other" slot.
const (
	slotReadReq = iota
	slotReadResp
	slotWriteProp
	slotDeleteReq
	slotPing
	slotPong
	slotBusy
	slotMultiReadReq
	slotMultiReadResp
	slotResyncReq
	slotResyncResp
	slotOther
	slotCount
)

var kindSlotNames = [slotCount]string{
	"read-req", "read-resp", "write-prop", "delete-req", "ping", "pong", "busy",
	"multi-read-req", "multi-read-resp", "resync-req", "resync-resp", "other",
}

func kindSlot(k wire.Kind) int {
	switch k {
	case wire.KindReadReq:
		return slotReadReq
	case wire.KindReadResp:
		return slotReadResp
	case wire.KindWriteProp:
		return slotWriteProp
	case wire.KindDeleteReq:
		return slotDeleteReq
	case wire.KindPing:
		return slotPing
	case wire.KindPong:
		return slotPong
	case wire.KindBusy:
		return slotBusy
	case wire.KindMultiReadReq:
		return slotMultiReadReq
	case wire.KindMultiReadResp:
		return slotMultiReadResp
	case wire.KindResyncReq:
		return slotResyncReq
	case wire.KindResyncResp:
		return slotResyncResp
	default:
		return slotOther
	}
}

var (
	obsReg = obs.Default()
	obsTr  = obs.DefaultTracer()

	mFramesSent = obsReg.Counter(`mobirep_transport_frames_total{dir="send"}`,
		"Frames handed to a link for transmission, by direction.")
	mFramesRecv = obsReg.Counter(`mobirep_transport_frames_total{dir="recv"}`, "")

	mBytesSentByKind [slotCount]*obs.Counter
	mBytesRecvByKind [slotCount]*obs.Counter

	mChaosFaults = map[string]*obs.Counter{
		"drop":      obsReg.Counter(`mobirep_chaos_faults_total{fault="drop"}`, "Chaos fault decisions, by fault kind."),
		"dup":       obsReg.Counter(`mobirep_chaos_faults_total{fault="dup"}`, ""),
		"defer":     obsReg.Counter(`mobirep_chaos_faults_total{fault="defer"}`, ""),
		"crash":     obsReg.Counter(`mobirep_chaos_faults_total{fault="crash"}`, ""),
		"partition": obsReg.Counter(`mobirep_chaos_faults_total{fault="partition"}`, ""),
		"stall":     obsReg.Counter(`mobirep_chaos_faults_total{fault="stall"}`, ""),
	}

	mSlowConsumerKills = obsReg.Counter("mobirep_transport_slow_consumer_kills_total",
		"Links killed because their bounded outbox (SetQueueLimit) overflowed.")
	mChaosDelivered = obsReg.Counter("mobirep_chaos_delivered_total",
		"Frames a chaos link forwarded to the peer, duplicates included.")

	mWritevFlushes = obsReg.Counter("mobirep_transport_writev_flushes_total",
		"Writes issued by TCP links: writev batches plus reply-inline writes.")
	mWritevFrames = obsReg.Counter("mobirep_transport_writev_frames_total",
		"Frames carried by those writes; frames/flushes is the batching factor.")

	// Every Send on a TCP link with a descriptor is one of these
	// five: sent inline, or queued for the flusher for the named reason.
	mInlineSends = obsReg.Counter("mobirep_transport_inline_sends_total",
		"Frames a TCP link wrote from the sender's goroutine (reply-inline send).")
	mInlineEagain = obsReg.Counter(`mobirep_transport_inline_fallbacks_total{reason="eagain"}`,
		"Sends that left the reply-inline path: socket full (eagain), partly written (short), "+
			"outbox non-empty or write in flight (busy), not the first send after a receive (burst).")
	mInlineShort = obsReg.Counter(`mobirep_transport_inline_fallbacks_total{reason="short"}`, "")
	mInlineBusy  = obsReg.Counter(`mobirep_transport_inline_fallbacks_total{reason="busy"}`, "")
	mInlineBurst = obsReg.Counter(`mobirep_transport_inline_fallbacks_total{reason="burst"}`, "")
)

func init() {
	for i := 0; i < slotCount; i++ {
		help := ""
		if i == 0 {
			help = "Frame payload bytes moved by links, by direction and message kind."
		}
		mBytesSentByKind[i] = obsReg.Counter(
			`mobirep_transport_bytes_total{dir="send",kind="`+kindSlotNames[i]+`"}`, help)
		mBytesRecvByKind[i] = obsReg.Counter(
			`mobirep_transport_bytes_total{dir="recv",kind="`+kindSlotNames[i]+`"}`, "")
	}
}

// recordSend accounts one frame leaving a link.
func recordSend(frame []byte) {
	mFramesSent.Inc()
	k, _ := wire.FrameKind(frame)
	mBytesSentByKind[kindSlot(k)].Add(uint64(len(frame)))
}

// recordRecv accounts one frame delivered to a handler.
func recordRecv(frame []byte) {
	mFramesRecv.Inc()
	k, _ := wire.FrameKind(frame)
	mBytesRecvByKind[kindSlot(k)].Add(uint64(len(frame)))
}

// recordFlush accounts one write (a writev batch or an inline write) that
// carried n whole frames.
func recordFlush(n int) {
	mWritevFlushes.Inc()
	mWritevFrames.Add(uint64(n))
}

// chaosFault accounts one fault decision and traces it. key is empty —
// the transport does not parse frames — but the fault name and the frame
// size give the event its shape.
func chaosFault(fault string, frameLen int) {
	if c := mChaosFaults[fault]; c != nil {
		c.Inc()
	}
	obsTr.Record(obs.EvChaosFault, "", fault, int64(frameLen), 0)
}
