package main

import (
	"bytes"
	"errors"
	"net/http"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// numClients is the closed-loop caller count. SPATIAL's callers (AI
// sensors, the dashboard, application back ends) each wait for a reply
// before they send again, so a closed loop is the honest load shape; two
// of them keep one request waiting while one is served, so the core
// under test (procs) never idles on a saturated workload.
const numClients = 2

// client is one closed-loop caller on one keep-alive connection. It is
// the benchmark's own driver, not internal/loadgen, so the instrument
// stays frozen when the program's load generator changes (N6).
type client struct {
	id   int
	base string
	hc   *http.Client
	buf  bytes.Buffer
	// accepted[rq.id] holds the response bodies already verified for
	// that request. The services are deterministic, so a repeat is
	// checked with one bytes.Equal and every response of a run is held
	// to the directly computed answer, not a sample of them.
	accepted [][][]byte
	samples  []sample
	version  []int // client 0's view of each cluster name's promoted version
	err      error // first failure to read the process CPU clock
}

func newClient(id int, base string, w *workload) *client {
	c := &client{
		id:   id,
		base: base,
		hc: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
		accepted: make([][][]byte, len(w.reqs)),
		version:  make([]int, len(clusterNames)),
	}
	for i := range c.version {
		c.version[i] = 1
	}
	return c
}

// do sends one request and checks the reply. The latency covers send to
// last body byte; checking the answer happens after the clock stops.
func (c *client) do(rq *request) (lat time.Duration, trace string, ok bool) {
	trace = telemetry.NewTraceID()
	req, err := http.NewRequest(http.MethodPost, c.base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return 0, trace, false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-API-Key", apiKey)
	req.Header.Set(telemetry.HeaderTraceID, trace)
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return time.Since(start), trace, false
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	lat = time.Since(start)
	if err != nil || resp.StatusCode != http.StatusOK {
		return lat, trace, false
	}
	return lat, trace, c.check(rq, c.buf.Bytes())
}

func (c *client) check(rq *request, body []byte) bool {
	if rq.id < 0 {
		return rq.accepts(body)
	}
	for _, seen := range c.accepted[rq.id] {
		if bytes.Equal(seen, body) {
			return true
		}
	}
	if !rq.accepts(body) {
		return false
	}
	c.accepted[rq.id] = append(c.accepted[rq.id], bytes.Clone(body))
	return true
}

// run issues operations back to back until stop closes. Operation n of
// client k is ops[(k*len/numClients + n) % len], so the callers walk the
// same bodies out of phase.
func (c *client) run(w *workload, epoch time.Time, stop <-chan struct{}) {
	offset := c.id * len(w.ops) / numClients
	for n := 0; ; n++ {
		select {
		case <-stop:
			return
		default:
		}
		if c.id == 0 && w.promoteEvery > 0 && n%w.promoteEvery == w.promoteEvery-1 {
			k := (n / w.promoteEvery) % len(clusterNames)
			c.version[k] = 3 - c.version[k]
			lat, trace, ok := c.do(promoteRequest(clusterNames[k], c.version[k]))
			c.samples = append(c.samples, sample{end: time.Since(epoch), lat: lat, class: clsPromote, ok: ok, trace: trace})
			continue
		}
		op := w.ops[(offset+n)%len(w.ops)]
		s := sample{class: clsOp, ok: true}
		for _, rq := range op {
			lat, trace, ok := c.do(rq)
			s.lat += lat
			s.ok = s.ok && ok
			if len(op) == 1 {
				s.trace = trace
				break
			}
			c.samples = append(c.samples, sample{end: time.Since(epoch), lat: lat, class: rq.class, ok: ok, trace: trace})
		}
		// One getrusage per operation (about a microsecond) lets reduce
		// charge CPU time slice by slice.
		cpu, err := cpuTime()
		if err != nil && c.err == nil {
			c.err = err
		}
		s.end, s.cpu = time.Since(epoch), cpu
		c.samples = append(c.samples, s)
	}
}

// load is what one driven interval produced.
type load struct {
	samples []sample
	from    time.Duration // when the measured window opened, since the start
	length  time.Duration // how long it stayed open
	cpu0    time.Duration // process CPU time when it opened
}

// drive runs numClients closed-loop clients against base: warm is
// discarded, then the window stays open for length. during, when set,
// runs alongside the clients and is told when to stop.
func drive(base string, w *workload, warm, length time.Duration, during func(stop <-chan struct{})) (load, error) {
	stop := make(chan struct{})
	clients := make([]*client, numClients)
	var wg sync.WaitGroup
	epoch := time.Now()
	for i := range clients {
		clients[i] = newClient(i, base, w)
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(w, epoch, stop)
		}(clients[i])
	}
	if during != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			during(stop)
		}()
	}
	time.Sleep(warm)
	cpu0, err := cpuTime()
	l := load{from: time.Since(epoch), cpu0: cpu0}
	time.Sleep(length)
	l.length = time.Since(epoch) - l.from
	close(stop)
	wg.Wait()
	for _, c := range clients {
		l.samples = append(l.samples, c.samples...)
		c.hc.CloseIdleConnections()
		err = errors.Join(err, c.err)
	}
	return l, err
}
