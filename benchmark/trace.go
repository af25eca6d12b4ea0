package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"mobirep/internal/wire"
)

// Root span names. Every request of a traced pass gets one root span and
// child spans named after the per-layer metric they feed.
const (
	rootReadHit  = "read_hit"
	rootReadMiss = "read_miss"
	rootWrite    = "write"
	rootHandoff  = "handoff"
	rootTask     = "task"
)

// span is one interval of one request.
type span struct {
	name       string
	start, end int64
}

// request is a root span and its children, all sharing the request id
// assigned when the trace is written.
type request struct {
	conn     int
	root     span
	children []span
}

// connTrace is the per-connection part of a traced pass: the connection's
// own taps, the layer histograms its requests feed, and the first
// traceSpansPerConn requests kept for the trace file. Only the
// connection's driver goroutine touches it.
type connTrace struct {
	conn     int
	cli, srv *tap

	// scope collects the fan-out Sends of this connection's own Writes
	// (pair_sw_drift, where each connection owns its keys and session).
	scope fanScope

	before   events // cli and srv counters when the current op began
	beforeS  events
	requests []request
	spanBuf  []span // backing store for request.children, preallocated
	misfits  int64  // ops whose tap events do not fit their class

	layerHists
}

// layerHists are the timings a connection's requests feed.
type layerHists struct {
	readHit, readMiss       hist
	presend, uplink, server hist
	downlink, postrecv      hist
	writeCommit, fanout     hist
}

func newConnTrace(conn int, cli, srv *tap) *connTrace {
	return &connTrace{
		conn: conn, cli: cli, srv: srv,
		requests: make([]request, 0, traceSpansPerConn),
		spanBuf:  make([]span, 0, traceSpansPerConn*6),
	}
}

// begin snapshots the tap counters before an operation.
func (ct *connTrace) begin() {
	ct.before = ct.cli.events()
	if ct.srv != nil {
		ct.beforeS = ct.srv.events()
	}
}

// delta returns how many frames each end sent and received since begin.
func (ct *connTrace) delta() (cli, srv events) {
	c := ct.cli.events()
	cli = events{c.sends - ct.before.sends, c.recvs - ct.before.recvs}
	if ct.srv != nil {
		s := ct.srv.events()
		srv = events{s.sends - ct.beforeS.sends, s.recvs - ct.beforeS.recvs}
	}
	return cli, srv
}

// keep stores a request for the trace file while there is room.
func (ct *connTrace) keep(root span, children ...span) {
	if len(ct.requests) == cap(ct.requests) || len(ct.spanBuf)+len(children) > cap(ct.spanBuf) {
		return
	}
	at := len(ct.spanBuf)
	ct.spanBuf = append(ct.spanBuf, children...)
	ct.requests = append(ct.requests, request{conn: ct.conn, root: root, children: ct.spanBuf[at:len(ct.spanBuf):len(ct.spanBuf)]})
}

// resetPass forgets what the warm-up recorded.
func (ct *connTrace) resetPass() {
	ct.requests, ct.spanBuf = ct.requests[:0], ct.spanBuf[:0]
	ct.misfits = 0
	ct.layerHists = layerHists{}
}

// mergeHists adds o's layer histograms to ct's.
func (ct *layerHists) mergeHists(o *layerHists) {
	for _, p := range [][2]*hist{
		{&ct.readHit, &o.readHit}, {&ct.readMiss, &o.readMiss},
		{&ct.presend, &o.presend}, {&ct.uplink, &o.uplink}, {&ct.server, &o.server},
		{&ct.downlink, &o.downlink}, {&ct.postrecv, &o.postrecv},
		{&ct.writeCommit, &o.writeCommit}, {&ct.fanout, &o.fanout},
	} {
		p[0].merge(p[1])
	}
}

// noteRead records a Client.Read that ran from t0 to t1. If the MC sent
// no ReadReq since t0 it was a hit. A miss is one request up and one
// response down; where the connection owns both ends of its link (ct.srv
// set) those are the only frames and the five layers between t0 and t1
// are split out. On a tree the MC's link also carries propagation that
// belongs to no request of its own, and everything beyond the MC's own
// link end is one span.
func (ct *connTrace) noteRead(t0, t1 int64) {
	cli, srv := ct.delta()
	cs := ct.cli.sendIn[wire.KindReadReq].Load()
	if cs < t0 {
		if ct.srv != nil && (cli != (events{}) || srv != (events{})) {
			ct.misfits++
			return
		}
		ct.readHit.add(t1 - t0)
		ct.keep(span{rootReadHit, t0, t1})
		return
	}
	cr := ct.cli.recvIn[wire.KindReadResp].Load()
	if cr < cs || cr > t1 {
		ct.misfits++
		return
	}
	if ct.srv == nil {
		ct.readMiss.add(t1 - t0)
		ct.presend.add(cs - t0)
		ct.postrecv.add(t1 - cr)
		ct.keep(span{rootReadMiss, t0, t1},
			span{"replica.client_presend", t0, cs},
			span{"tree.upstream", cs, cr},
			span{"replica.client_postrecv", cr, t1})
		return
	}
	sr := ct.srv.recvIn[wire.KindReadReq].Load()
	ss := ct.srv.sendIn[wire.KindReadResp].Load()
	if cli != (events{1, 1}) || srv != (events{1, 1}) || sr < cs || ss < sr || cr < ss {
		ct.misfits++
		return
	}
	ct.readMiss.add(t1 - t0)
	ct.presend.add(cs - t0)
	ct.postrecv.add(t1 - cr)
	ct.uplink.add(sr - cs)
	ct.server.add(ss - sr)
	ct.downlink.add(cr - ss)
	ct.keep(span{rootReadMiss, t0, t1},
		span{"replica.client_presend", t0, cs},
		span{"transport.uplink", cs, sr},
		span{"replica.server", sr, ss},
		span{"transport.downlink", ss, cr},
		span{"replica.client_postrecv", cr, t1})
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(root span, children []span) int64 {
	iv := append([]span(nil), children...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	covered, end := int64(0), root.start
	for _, c := range iv {
		s, e := c.start, c.end
		if s < end {
			s = end
		}
		if e > root.end {
			e = root.end
		}
		if e > s {
			covered += e - s
			end = e
		}
	}
	return root.end - root.start - covered
}

// Trace file layout.
type traceSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Request int    `json:"request"`
	Conn    int    `json:"conn"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type traceSummary struct {
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"`
}

type traceFile struct {
	Workload        string                  `json:"workload"`
	Seed            uint64                  `json:"seed"`
	Requests        int64                   `json:"requests_traced"`
	RequestsWritten int                     `json:"requests_written"`
	UnmatchedEvents int64                   `json:"unmatched_events"`
	Summary         map[string]traceSummary `json:"summary"`
	Spans           []traceSpan             `json:"spans"`
}

// writeTrace writes the kept requests as benchmark/out/<workload>.trace.json
// and returns the path.
func writeTrace(dir, workload string, seed uint64, traced, unmatched int64, reqs []request) (string, error) {
	tf := traceFile{
		Workload: workload, Seed: seed, Requests: traced, RequestsWritten: len(reqs),
		UnmatchedEvents: unmatched, Summary: make(map[string]traceSummary),
	}
	note := func(name string, total, self int64) {
		s := tf.Summary[name]
		s.Count++
		s.TotalUs += float64(total) / 1e3
		s.SelfUs += float64(self) / 1e3
		tf.Summary[name] = s
	}
	id := 0
	for i, r := range reqs {
		id++
		rootID := id
		tf.Spans = append(tf.Spans, traceSpan{ID: rootID, Request: i + 1, Conn: r.conn, Name: r.root.name, StartNs: r.root.start, EndNs: r.root.end})
		note(r.root.name, r.root.end-r.root.start, selfTime(r.root, r.children))
		for _, c := range r.children {
			id++
			tf.Spans = append(tf.Spans, traceSpan{ID: id, Parent: rootID, Request: i + 1, Conn: r.conn, Name: c.name, StartNs: c.start, EndNs: c.end})
			note(c.name, c.end-c.start, c.end-c.start)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create %s: %w", dir, err)
	}
	path := filepath.Join(dir, workload+".trace.json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// checkBalanced reports the first span of a written trace that is
// malformed: an end before its start, a child outside its root, or a
// child whose parent is missing.
func checkBalanced(tf *traceFile) error {
	roots := make(map[int]traceSpan)
	for _, s := range tf.Spans {
		if s.EndNs < s.StartNs {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			roots[s.ID] = s
		}
	}
	for _, s := range tf.Spans {
		if s.Parent == 0 {
			continue
		}
		r, ok := roots[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) has no root %d", s.ID, s.Name, s.Parent)
		}
		if s.Request != r.Request || s.StartNs < r.StartNs || s.EndNs > r.EndNs {
			return fmt.Errorf("span %d (%s) lies outside its root %d (%s)", s.ID, s.Name, r.ID, r.Name)
		}
	}
	return nil
}
