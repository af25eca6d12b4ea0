package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/mobile"
	"mobirep/internal/replica"
	"mobirep/internal/transport"
)

// Every value the benchmark writes is derived from (key index, version):
// the two numbers in a 16-byte header, then one filler byte computed
// from them, repeated. A reader can therefore check any value it gets
// against the version that came with it.

const payloadHeader = 16

var fillers = func() [256][]byte {
	var f [256][]byte
	for b := range f {
		f[b] = bytes.Repeat([]byte{byte(b)}, 1024)
	}
	return f
}()

func fillerByte(key uint32, version uint64) byte {
	return byte(uint64(key)*31 + version*17 + 1)
}

// fillPayload writes the value of (key, version) into buf, whose length
// is the value size (at least payloadHeader, at most 1024+payloadHeader).
func fillPayload(buf []byte, key uint32, version uint64) {
	binary.LittleEndian.PutUint64(buf[0:8], uint64(key))
	binary.LittleEndian.PutUint64(buf[8:16], version)
	copy(buf[payloadHeader:], fillers[fillerByte(key, version)])
}

// checkPayload reports whether v is the value of (key, version) at the
// given size.
func checkPayload(v []byte, size int, key uint32, version uint64) error {
	if len(v) != size {
		return fmt.Errorf("key %d v%d: value has %d bytes, want %d", key, version, len(v), size)
	}
	if k := binary.LittleEndian.Uint64(v[0:8]); k != uint64(key) {
		return fmt.Errorf("key %d v%d: value belongs to key %d", key, version, k)
	}
	if ver := binary.LittleEndian.Uint64(v[8:16]); ver != version {
		return fmt.Errorf("key %d: value of v%d arrived as v%d", key, ver, version)
	}
	if !bytes.Equal(v[payloadHeader:], fillers[fillerByte(key, version)][:size-payloadHeader]) {
		return fmt.Errorf("key %d v%d: value bytes damaged", key, version)
	}
	return nil
}

func keyName(prefix string, i int) string { return fmt.Sprintf("%s%06d", prefix, i) }

// await receives from ch, giving up after d. It reuses the caller's
// timer (one per driver, stopped between uses) so waiting allocates
// nothing. A tick can outlive the Stop that followed it — Stop reports
// the timer fired a moment before the tick lands in the channel — so a
// tick only counts once the deadline has really passed.
func await[T any](t *time.Timer, ch <-chan T, d time.Duration) (v T, ok bool) {
	deadline := nowNs() + int64(d)
	for {
		t.Reset(time.Duration(deadline - nowNs()))
		select {
		case v = <-ch:
			if !t.Stop() {
				select {
				case <-t.C:
				default:
				}
			}
			return v, true
		case <-t.C:
			if nowNs() >= deadline {
				return v, false
			}
		}
	}
}

// newStoppedTimer returns a timer for await.
func newStoppedTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}

// pair is the flat MC/SC shape three workloads share: one in-process
// server over one store, and MCs attached over loopback TCP.
type pair struct {
	o     *options
	tr    *tracer // nil when the pass is not traced
	mode  replica.Mode
	store *db.Store
	srv   *replica.Server
	lb    *loopback

	clis []*replica.Client
	sess []*replica.Session
	cts  []*connTrace

	begin, end passCounters // link and cache counters around the pass
}

func newPair(o *options, tr *tracer, mode replica.Mode, store *db.Store) (*pair, error) {
	srv, err := replica.NewServerShards(store, mode, serverShards)
	if err != nil {
		return nil, err
	}
	lb, err := newLoopback()
	if err != nil {
		return nil, err
	}
	return &pair{o: o, tr: tr, mode: mode, store: store, srv: srv, lb: lb}, nil
}

// attachTCP connects one more MC over loopback TCP, tapped when the pass
// is traced.
func (p *pair) attachTCP() (*replica.Client, error) {
	dialled, accepted, err := p.lb.connect()
	if err != nil {
		return nil, err
	}
	var down, up transport.Link = dialled, accepted
	if p.tr != nil {
		d, u := p.tr.wrapTCP(dialled, accepted, false)
		ct := newConnTrace(len(p.cts), d, u)
		u.scope = &ct.scope
		p.cts = append(p.cts, ct)
		down, up = d, u
	}
	cli, err := replica.NewClient(down, p.mode)
	if err != nil {
		return nil, err
	}
	cli.Timeout = readTimeout
	sess := p.srv.Attach(up)
	accepted.Start(func(error) { sess.Detach() })
	p.clis = append(p.clis, cli)
	p.sess = append(p.sess, sess)
	return cli, nil
}

func (p *pair) ledger() replica.MeterSnapshot {
	var s replica.MeterSnapshot
	for i, cli := range p.clis {
		s = s.Add(cli.Meter().Snapshot()).Add(p.sess[i].Meter().Snapshot())
	}
	return s
}

func (p *pair) traces() []*connTrace { return p.cts }

func (p *pair) harnessBytes() int64 { return 0 }

func (p *pair) snapshot() passCounters {
	c := passCounters{writev: p.lb.stats()}
	for _, cli := range p.clis {
		c.cache.add(cli.Cache().Stats())
	}
	return c
}

func (p *pair) beginPass() { p.begin = p.snapshot() }
func (p *pair) endPass()   { p.end = p.snapshot() }

// passCounters are the counters the product keeps itself that the
// per-layer metrics report as movement over a pass: the links' writev
// counters and the clients' cache counters.
type passCounters struct {
	writev transport.CoalesceStats
	cache  cacheTotals
}

type cacheTotals struct{ hits, misses, installs, drops int }

func (t *cacheTotals) add(s mobile.Stats) {
	t.hits += s.Hits
	t.misses += s.Misses
	t.installs += s.Installs
	t.drops += s.Drops
}

// counterLayers fills the writev and cache metrics from how far the
// counters moved between begin and end, over ops operations.
func counterLayers(m metrics, begin, end passCounters, ops float64) {
	flushes := float64(end.writev.Flushes - begin.writev.Flushes)
	if flushes > 0 {
		m["transport.frames_per_writev"] = float64(end.writev.Frames-begin.writev.Frames) / flushes
	}
	m["transport.writev_per_op"] = flushes / ops
	b, e := begin.cache, end.cache
	if reads := float64(e.hits + e.misses - b.hits - b.misses); reads > 0 {
		m["mobile.hit_ratio"] = float64(e.hits-b.hits) / reads
	}
	m["mobile.installs_per_kop"] = 1e3 * float64(e.installs-b.installs) / ops
	m["mobile.drops_per_kop"] = 1e3 * float64(e.drops-b.drops) / ops
}

func (p *pair) close() {
	for i, cli := range p.clis {
		p.sess[i].Detach()
		cli.Disconnect()
	}
	p.lb.close()
}
