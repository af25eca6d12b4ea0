package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/replica"
	"mobirep/internal/stats"
	"mobirep/internal/transport"
	"mobirep/internal/wire"
)

// pair_write_fanout: mode ST2 over a durable store (group commit,
// interval 0, on the in-memory log device), K subscriber MCs on
// synchronous in-memory links plus C MCs on loopback TCP, every MC
// holding every key. C writers call Server.Write in a closed loop; a
// write is complete when Write returned and the writer's own TCP MC
// applied that version.
type writeFanout struct {
	*pair
	fs      *memFS
	logPath string
	mem     []*replica.Client
	memSess []*replica.Session
	keys    []string
	conn    []*fanConn

	log0, logEnd int64 // store.LogSize when the pass began and when verify closed the store
}

type fanConn struct {
	rng     *stats.RNG
	own     []int    // indices of the keys this writer owns
	version []uint64 // last version acknowledged, by key (own keys only)
	buf     []byte

	// What the writer is waiting to see applied at its MC, read by the
	// apply handler on the link's read loop.
	waitKey, waitVer atomic.Uint64
	recvIn           atomic.Int64 // handler entry of the awaited frame (traced)
	sig              chan struct{}
	timer            *time.Timer
}

var writeFanoutWorkload = netWorkload{name: "pair_write_fanout", primary: opWrite, build: buildWriteFanout}

const fanLogName = "fanout.log"

func openFanStore(fs db.FS, path string) (*db.Store, error) {
	return db.OpenWith(db.Options{Path: path, Sync: db.SyncGroup, GroupInterval: 0, FS: fs})
}

func buildWriteFanout(o *options, tr *tracer) (instance, error) {
	sz := o.sz
	fs := newMemFS()
	store, err := openFanStore(fs, fanLogName)
	if err != nil {
		return nil, err
	}
	p, err := newPair(o, tr, replica.Static2(), store)
	if err != nil {
		store.Close()
		return nil, err
	}
	w := &writeFanout{pair: p, fs: fs, logPath: fanLogName, keys: make([]string, sz.fanKeys)}
	fail := func(err error) (instance, error) {
		w.close()
		return nil, err
	}
	buf := make([]byte, sz.fanValue)
	for i := range w.keys {
		w.keys[i] = keyName("f", i)
		fillPayload(buf, uint32(i), 1)
		if _, err := p.srv.Write(w.keys[i], buf); err != nil {
			return fail(fmt.Errorf("preload: %w", err))
		}
	}

	nconn := clientConns
	for i := 0; i < sz.fanMemSubs; i++ {
		mcEnd, scEnd := transport.NewMemPair()
		if tr != nil {
			t := tr.wrapMem(scEnd)
			t.scope = &tr.scope
			scEnd = t
		}
		cli, err := replica.NewClient(mcEnd, p.mode)
		if err != nil {
			return fail(err)
		}
		w.mem = append(w.mem, cli)
		w.memSess = append(w.memSess, p.srv.Attach(scEnd))
	}
	for c := 0; c < nconn; c++ {
		cn := &fanConn{
			rng: stats.NewRNG(o.seed<<8 | uint64(c)), version: make([]uint64, sz.fanKeys),
			buf: make([]byte, sz.fanValue), sig: make(chan struct{}, 1), timer: newStoppedTimer(),
		}
		for k := c; k < sz.fanKeys; k += nconn {
			cn.own = append(cn.own, k)
			cn.version[k] = 1
		}
		cli, err := p.attachTCP()
		if err != nil {
			return fail(err)
		}
		var ct *connTrace
		if tr != nil {
			ct = p.cts[c]
			ct.srv.scope = &tr.scope
		}
		cli.SetApplyHandler(func(it db.Item) {
			if len(it.Value) < payloadHeader ||
				binary.LittleEndian.Uint64(it.Value[0:8]) != cn.waitKey.Load() ||
				binary.LittleEndian.Uint64(it.Value[8:16]) != cn.waitVer.Load() {
				return
			}
			if ct != nil {
				cn.recvIn.Store(ct.cli.recvIn[wire.KindWriteProp].Load())
			}
			select {
			case cn.sig <- struct{}{}:
			default:
			}
		})
		w.conn = append(w.conn, cn)
	}

	// Every MC reads every key once: under ST2 that allocates the copy.
	for _, cli := range append(append([]*replica.Client(nil), w.mem...), p.clis...) {
		for i, key := range w.keys {
			it, err := cli.Read(key)
			if err == nil {
				err = checkPayload(it.Value, sz.fanValue, uint32(i), 1)
			}
			if err != nil {
				return fail(fmt.Errorf("first read: %w", err))
			}
		}
	}
	return w, nil
}

func (w *writeFanout) op(c int, t0 int64, rec *connRec) (opClass, int64, int64, error) {
	cn := w.conn[c]
	k := cn.own[cn.rng.Intn(len(cn.own))]
	ver := cn.version[k] + 1
	fillPayload(cn.buf, uint32(k), ver)
	cn.waitKey.Store(uint64(k))
	cn.waitVer.Store(ver)

	var ct *connTrace
	serialize := false
	if w.cts != nil {
		ct = w.cts[c]
		// The fan-out scope is one per tracer; with several writers the
		// traced pass lets one Write fan out at a time so its Sends can be
		// told from the next writer's.
		if serialize = len(w.conn) > 1; serialize {
			w.tr.writeMu.Lock()
		}
		w.tr.scope.reset()
		ct.begin()
	}
	it, err := w.srv.Write(w.keys[k], cn.buf)
	tw := nowNs()
	var first, sends int64
	if ct != nil {
		first, sends = w.tr.scope.first.Load(), w.tr.scope.sends.Load()
		if serialize {
			w.tr.writeMu.Unlock()
		}
	}
	if err != nil {
		return opWrite, tw, tw, err
	}
	rec.writeCall.add(tw - t0)
	if it.Version != ver {
		return opWrite, tw, tw, fmt.Errorf("key %d: write got v%d, want v%d", k, it.Version, ver)
	}
	cn.version[k] = ver

	if _, ok := await(cn.timer, cn.sig, readTimeout); !ok {
		return opWrite, tw, nowNs(), fmt.Errorf("key %d v%d: %w", k, ver, errNotify)
	}
	done := nowNs()
	if ct != nil {
		w.noteFanWrite(ct, cn, t0, first, tw, done, sends)
	}
	return opWrite, done, done, nil
}

// noteFanWrite records one fanned-out Write: commit (entry → first
// fan-out Send), fan-out (first Send → return), the TCP hop to the
// writer's own MC, and the apply there.
func (w *writeFanout) noteFanWrite(ct *connTrace, cn *fanConn, t0, first, tw, visible, sends int64) {
	cli, _ := ct.delta()
	cr := cn.recvIn.Load()
	if cli.sends != 0 || cli.recvs < 1 || sends != int64(len(w.mem)+len(w.clis)) ||
		first < t0 || first > tw || cr < first || cr > visible {
		ct.misfits++
		return
	}
	ct.writeCommit.add(first - t0)
	ct.fanout.add(tw - first)
	// The Send to the writer's own MC is one of the fan-out's; with
	// several writers the tap's last Send may already be the next one's.
	ss := ct.srv.sendIn[wire.KindWriteProp].Load()
	if ss < first || ss > cr {
		ss = first
	}
	ct.keep(span{rootWrite, t0, visible},
		span{"replica.write_commit", t0, first},
		span{"replica.fanout", first, tw},
		span{"transport.downlink", ss, cr},
		span{"replica.client_apply", cr, visible})
}

func (w *writeFanout) ledger() replica.MeterSnapshot {
	s := w.pair.ledger()
	for i, cli := range w.mem {
		s = s.Add(cli.Meter().Snapshot()).Add(w.memSess[i].Meter().Snapshot())
	}
	return s
}

func (w *writeFanout) harnessBytes() int64 { return w.fs.bytes() }

func (w *writeFanout) beginPass() {
	w.pair.beginPass()
	w.log0 = w.store.LogSize()
}

// verify waits until every cache holds the last acknowledged version of
// every key, then closes the store, reopens the log, and requires the
// same versions and values from it.
func (w *writeFanout) verify() error {
	latest := make([]uint64, len(w.keys))
	for _, cn := range w.conn {
		for _, k := range cn.own {
			latest[k] = cn.version[k]
		}
	}
	deadline := time.Now().Add(quiesceTimeout)
	all := append(append([]*replica.Client(nil), w.mem...), w.clis...)
	for n, cli := range all {
		for k, key := range w.keys {
			for {
				it, ok := cli.Cache().Peek(key)
				if ok && it.Version == latest[k] {
					if err := checkPayload(it.Value, w.o.sz.fanValue, uint32(k), latest[k]); err != nil {
						return fmt.Errorf("MC %d cache: %w", n, err)
					}
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("MC %d holds key %d at v%d (held=%v), last acknowledged is v%d", n, k, it.Version, ok, latest[k])
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	w.logEnd = w.store.LogSize()
	if err := w.store.Close(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	re, err := openFanStore(w.fs, w.logPath)
	if err != nil {
		return fmt.Errorf("reopen log: %w", err)
	}
	defer re.Close()
	for k, key := range w.keys {
		it, ok := re.Get(key)
		if !ok || it.Version != latest[k] {
			return fmt.Errorf("reopened log has key %d at v%d (present=%v), last acknowledged is v%d", k, it.Version, ok, latest[k])
		}
		if err := checkPayload(it.Value, w.o.sz.fanValue, uint32(k), latest[k]); err != nil {
			return fmt.Errorf("reopened log: %w", err)
		}
	}
	return nil
}

func (w *writeFanout) layers(m metrics, pass *passResult) {
	ops := float64(pass.rec.ops())
	counterLayers(m, w.begin, w.end, ops)
	m["replica.fanout_ns_per_subscriber"] = 1e3 * m["replica.fanout_us_p50"] / float64(len(w.mem)+len(w.clis))
	m["db.fsyncs_per_write"] = pass.counter("mobirep_db_fsyncs_total") / ops
	if rounds := pass.counter("mobirep_db_group_commits_total"); rounds > 0 {
		m["db.records_per_group_commit"] = pass.counter("mobirep_db_group_commit_records_total") / rounds
	}
	m["db.log_bytes_per_user_byte"] = float64(w.logEnd-w.log0) / (ops * float64(w.o.sz.fanValue))
	dbProbe(m, w.o)
}

func (w *writeFanout) close() {
	for i, cli := range w.mem {
		w.memSess[i].Detach()
		cli.Disconnect()
	}
	w.pair.close()
	w.store.Close()
}

// dbProbe times Store.Put and Store.Get directly on a store opened like
// the workload's, and Put once more on a real file under the output
// directory — this sandbox's device, reported and never gated.
func dbProbe(m metrics, o *options) {
	sz := o.sz
	val := make([]byte, sz.fanValue)
	keys := make([]string, sz.fanKeys)
	for i := range keys {
		keys[i] = keyName("p", i)
	}
	puts := func(store *db.Store, n int) *hist {
		var h hist
		for i := 0; i < n; i++ {
			k := i % len(keys)
			fillPayload(val, uint32(k), uint64(i/len(keys)+1))
			t0 := nowNs()
			if _, err := store.Put(keys[k], val); err != nil {
				return &hist{}
			}
			h.add(nowNs() - t0)
		}
		return &h
	}

	store, err := openFanStore(newMemFS(), "probe.log")
	if err != nil {
		return
	}
	ph := puts(store, sz.probePuts)
	m["db.put_us_p50"] = us(ph.quantile(0.50))
	m["db.put_us_p99"] = us(ph.quantile(0.99))
	// Get is tens of nanoseconds: time it in batches so the clock does
	// not dominate.
	const batch = 64
	var gh hist
	for i := 0; i+batch <= sz.probeGets; i += batch {
		t0 := nowNs()
		for j := 0; j < batch; j++ {
			store.Get(keys[(i+j)%len(keys)])
		}
		gh.add((nowNs() - t0) / batch)
	}
	m["db.get_ns_p50"] = gh.quantile(0.50)
	store.Close()

	path := filepath.Join(o.outDir, fmt.Sprintf("probe-%d.log", os.Getpid()))
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return
	}
	disk, err := openFanStore(nil, path)
	if err != nil {
		return
	}
	dh := puts(disk, sz.probePuts/20)
	disk.Close()
	os.Remove(path)
	m["db.put_us_p50_disk"] = us(dh.quantile(0.50))
}
