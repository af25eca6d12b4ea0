package main

import (
	"fmt"

	"mobirep/internal/db"
	"mobirep/internal/replica"
	"mobirep/internal/stats"
)

// pair_read_miss: mode ST1, in-memory store, every Client.Read a ReadReq
// up and a ReadResp down.
type readMiss struct {
	*pair
	keys []string
	rngs []*stats.RNG
}

var readMissWorkload = netWorkload{name: "pair_read_miss", primary: opRead, build: buildReadMiss}

func buildReadMiss(o *options, tr *tracer) (instance, error) {
	p, err := newPair(o, tr, replica.Static1(), db.NewStore())
	if err != nil {
		return nil, err
	}
	w := &readMiss{pair: p, keys: make([]string, o.sz.missKeys)}
	buf := make([]byte, o.sz.missValue)
	for i := range w.keys {
		w.keys[i] = keyName("m", i)
		fillPayload(buf, uint32(i), 1)
		if _, err := p.srv.Write(w.keys[i], buf); err != nil {
			p.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	for c := 0; c < clientConns; c++ {
		if _, err := p.attachTCP(); err != nil {
			p.close()
			return nil, err
		}
		w.rngs = append(w.rngs, stats.NewRNG(o.seed<<8|uint64(c)))
	}
	return w, nil
}

func (w *readMiss) op(c int, t0 int64, _ *connRec) (opClass, int64, int64, error) {
	k := w.rngs[c].Intn(len(w.keys))
	var ct *connTrace
	if w.cts != nil {
		ct = w.cts[c]
		ct.begin()
	}
	it, err := w.clis[c].Read(w.keys[k])
	t1 := nowNs()
	if err == nil {
		err = checkPayload(it.Value, w.o.sz.missValue, uint32(k), 1)
		if err == nil && it.Version != 1 {
			err = fmt.Errorf("key %d: read version %d, want 1", k, it.Version)
		}
	}
	if ct != nil && err == nil {
		ct.noteRead(t0, t1)
	}
	return opRead, t1, t1, err
}

// verify checks the ledger: ST1 is exactly one control and one data
// message per read, one connection each, and nothing else.
func (w *readMiss) verify() error {
	led := w.ledger()
	var reads int
	for _, cli := range w.clis {
		st := cli.Cache().Stats()
		reads += st.Hits + st.Misses
		if st.Hits != 0 || st.Installs != 0 {
			return fmt.Errorf("ST1 client cached: %d hits, %d installs", st.Hits, st.Installs)
		}
	}
	if led.ControlMsgs != reads || led.DataMsgs != reads || led.Connections != reads {
		return fmt.Errorf("ledger over %d reads: %d control, %d data, %d connections; want %d of each",
			reads, led.ControlMsgs, led.DataMsgs, led.Connections, reads)
	}
	return nil
}

func (w *readMiss) layers(m metrics, pass *passResult) {
	counterLayers(m, w.begin, w.end, float64(pass.rec.ops()))
}
