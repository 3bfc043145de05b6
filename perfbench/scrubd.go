package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/disk"
	"repro/internal/scrubd"
	"repro/internal/trace"
)

// scrubdWorkload drives an in-process scrubd.Server on loopback in a
// closed loop over one keep-alive connection: decision queries mixed
// with feed batches of one device's next 64 arrivals, each of which
// triggers that device's AR refit.
type scrubdWorkload struct{}

// Traffic shape at scale 1. The decide:feed mix and the decision
// instants are the benchmark's own choice: one feed per eight decides
// keeps the engine's AR refits visible beside net/http.
const (
	scrubdDevices  = 64
	scrubdHistory  = 1024 // gaps per device fed during set-up
	scrubdBatch    = 64   // gaps per timed feed: one AR refit
	scrubdDecides  = 40000
	scrubdFeedGap  = 8   // decides between two feeds
	scrubdPrefeed  = 512 // records per set-up feed request
	scrubdCheckGap = 250 * time.Millisecond
	// scrubdLookahead bounds a decision instant after the device's latest
	// fed arrival.
	scrubdLookahead = 2 * time.Second
)

// scrubdProfile is the trace catalog entry each device's feed records
// come from: arrival gaps and request sizes, one seeded source per
// device.
const scrubdProfile = "HPc3t3d0"

// scrubdSpan is each device source's horizon; the run reads only the
// records it feeds, far fewer than the span holds.
const scrubdSpan = 48 * time.Hour

func (scrubdWorkload) name() string { return "scrubd" }

// maxProcs keeps the closed loop on one OS thread. The client and the
// server goroutines hand each request back and forth; with a P each,
// every hand-off put one thread to sleep and woke another (about 15 000
// context switches a second), and the wake-up latency of a shared host
// made the run's time spread with the host's load rather than with the
// program.
func (scrubdWorkload) maxProcs() int { return 1 }

// gen has nothing to write: the request bytes are built in memory by
// prepare, before set-up and timing.
func (scrubdWorkload) gen(options) error { return nil }

// request is one pre-built HTTP/1.1 request.
type request struct {
	raw    []byte
	decide bool
}

// scrubdInputs is the whole conversation, built from the seed.
type scrubdInputs struct {
	prefeed []request // set-up: every device's history
	timed   []request // the closed loop
	check   []request // decisions read after the final sync
	decides int
}

func devName(i int) string { return fmt.Sprintf("d%03d", i) }

// feeder hands out one device's feed records from its catalog trace.
type feeder struct {
	src  trace.Source
	last int64 // µs of the latest record handed out
}

// next returns the next record's arrival in µs and its size in bytes.
// The daemon drops a record that does not arrive strictly after the
// device's previous one, so arrivals that share a microsecond are spread
// one microsecond apart.
func (f *feeder) next() (atUs, bytes int64, err error) {
	var rec trace.Record
	if err := f.src.Next(&rec); err != nil {
		return 0, 0, err
	}
	at := int64(rec.Arrival/time.Microsecond) + 1
	if at <= f.last {
		at = f.last + 1
	}
	f.last = at
	return at, rec.Sectors * disk.SectorSize, nil
}

// buildScrubd lays out every request of a repetition. Device i's feed
// records are the scrubdProfile trace synthesised with its own seed;
// decision timestamps fall uniformly in the scrubdLookahead after the
// device's latest fed arrival.
func buildScrubd(seed int64, scale float64) (*scrubdInputs, error) {
	syn, ok := trace.ByName(scrubdProfile)
	if !ok {
		return nil, fmt.Errorf("no trace profile %q", scrubdProfile)
	}
	rng := rand.New(rand.NewSource(seed))
	devices := scrubdDevices
	decides := int(float64(scrubdDecides)*scale + 0.5)
	feeders := make([]feeder, devices)
	for i := range feeders {
		feeders[i].src = syn.Source(seed*scrubdDevices+int64(i), scrubdSpan)
	}
	feed := func(dev, n int) (request, error) {
		var body bytes.Buffer
		body.WriteString(`{"records":[`)
		for k := 0; k < n; k++ {
			at, size, err := feeders[dev].next()
			if err != nil {
				return request{}, fmt.Errorf("device %s: %w", devName(dev), err)
			}
			if k > 0 {
				body.WriteByte(',')
			}
			fmt.Fprintf(&body, `{"dev":"%s","at_us":%d,"bytes":%d}`, devName(dev), at, size)
		}
		body.WriteString(`]}`)
		return request{raw: []byte(fmt.Sprintf("POST /v1/feed HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", body.Len(), body.Bytes()))}, nil
	}
	decide := func(dev int, at int64) request {
		return request{raw: []byte(fmt.Sprintf("GET /v1/decide?dev=%s&now_us=%d HTTP/1.1\r\nHost: bench\r\n\r\n", devName(dev), at)), decide: true}
	}
	in := &scrubdInputs{decides: decides}
	for d := 0; d < devices; d++ {
		for left := scrubdHistory; left > 0; left -= scrubdPrefeed {
			rq, err := feed(d, min(left, scrubdPrefeed))
			if err != nil {
				return nil, err
			}
			in.prefeed = append(in.prefeed, rq)
		}
	}
	lookahead := int64(scrubdLookahead / time.Microsecond)
	next := 0
	for i := 0; i < decides; i++ {
		if i%scrubdFeedGap == 0 {
			rq, err := feed(next, scrubdBatch)
			if err != nil {
				return nil, err
			}
			in.timed = append(in.timed, rq)
			next = (next + 1) % devices
		}
		d := rng.Intn(devices)
		in.timed = append(in.timed, decide(d, feeders[d].last+rng.Int63n(lookahead)))
	}
	for d := 0; d < devices; d++ {
		in.check = append(in.check, decide(d, feeders[d].last+int64(scrubdCheckGap/time.Microsecond)))
	}
	if err := offHeap(in.prefeed, in.timed, in.check); err != nil {
		return nil, err
	}
	return in, nil
}

// offHeap moves the requests' bytes into one anonymous mapping outside
// the Go heap. Left on the heap, the ~20 MB of pre-built requests count
// as the daemon's live heap, which a real daemon does not carry: the
// collector then lets the heap grow more than twice as far between
// cycles (4 cycles a repetition instead of 9), the server's allocations
// spread over that much more memory, and on a shared 2-vCPU host the
// run-to-run spread of wall_s was 2–3 times that with the requests
// mapped. The mapping is never unmapped: the requests are used until
// the process exits.
func offHeap(reqs ...[]request) error {
	n := 0
	for _, rs := range reqs {
		for _, r := range rs {
			n += len(r.raw)
		}
	}
	mem, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("mapping the requests: %w", err)
	}
	for _, rs := range reqs {
		for i := range rs {
			k := copy(mem, rs[i].raw)
			rs[i].raw, mem = mem[:k:k], mem[k:]
		}
	}
	return nil
}

var syncRequest = request{raw: []byte("POST /v1/sync HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n")}

func (scrubdWorkload) prepare(opt options) (repFunc, error) {
	in, err := buildScrubd(opt.seed, opt.scale)
	if err != nil {
		return nil, err
	}
	return func(tr *tracer) (repResult, error) { return scrubdRep(in, tr) }, nil
}

// daemon is one running server with its client connection.
type daemon struct {
	eng    *scrubd.Engine
	srv    *http.Server
	served chan error
	conn   net.Conn
	cl     *client
}

func startDaemon(h func(http.Handler) http.Handler) (*daemon, error) {
	eng := scrubd.NewEngine(scrubd.Config{})
	eng.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	d := &daemon{eng: eng, srv: &http.Server{Handler: h(scrubd.NewServer(eng, scrubd.ServerConfig{}).Handler())}, served: make(chan error, 1)}
	go func() { d.served <- d.srv.Serve(ln) }()
	d.conn, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		d.stop()
		return nil, err
	}
	d.cl = &client{r: bufio.NewReaderSize(d.conn, 64<<10), w: d.conn}
	return d, nil
}

// stop closes the connection and the server, waits for Serve to
// return, and stops the engine's appliers.
func (d *daemon) stop() {
	if d.conn != nil {
		d.conn.Close()
	}
	d.srv.Close()
	<-d.served
	d.eng.Close()
}

// scrubdRep is one repetition: a fresh daemon set up with every
// device's history, the timed closed loop, then the final sync and the
// fixed decision set whose answers form the digest.
func scrubdRep(in *scrubdInputs, tr *tracer) (repResult, error) {
	var out repResult
	wrap := func(h http.Handler) http.Handler { return h }
	var th *timedHandler
	if tr != nil {
		th = &timedHandler{}
		wrap = th.wrap
	}
	t := time.Now()
	d, err := startDaemon(wrap)
	if err != nil {
		return out, err
	}
	defer d.stop()
	spanned(tr, "setup", func() { err = d.prefeed(in.prefeed) })
	if err != nil {
		return out, err
	}
	out.setupS = time.Since(t).Seconds()
	if th != nil {
		th.reset()
	}

	decideLat := make([]float64, 0, in.decides)
	var feedLat []float64
	var refused int64
	t0 := time.Now()
	spanned(tr, "requests", func() {
		for _, rq := range in.timed {
			ts := time.Now()
			var status int
			status, _, err = d.cl.do(rq.raw)
			if err != nil {
				return
			}
			lat := float64(time.Since(ts)) / 1e3
			if rq.decide {
				decideLat = append(decideLat, lat)
			} else {
				feedLat = append(feedLat, lat)
			}
			if status/100 != 2 {
				out.failed++
				if status == http.StatusTooManyRequests {
					refused++
				}
			}
		}
	})
	if err != nil {
		return out, err
	}
	out.wallS = time.Since(t0).Seconds()
	out.attempted = int64(len(in.timed))
	out.events = out.attempted
	out.opsPerS = float64(len(in.timed)) / out.wallS
	out.decideUs, out.feedUs = decideLat, feedLat

	if tr != nil {
		dec, feed := th.medians()
		tr.add("scrubd.decide_handler_us", dec)
		tr.add("scrubd.feed_handler_us", feed)
		tr.add("scrubd.http_overhead_us", quantile(decideLat, 0.5)-dec)
		tr.add("scrubd.backpressure", float64(refused))
		tr.add("scrubd.devices", float64(d.eng.Devices()))
		tr.add("wall_s", out.wallS)
	}

	if err := d.cl.sync(); err != nil {
		return out, err
	}
	var answers bytes.Buffer
	for _, rq := range in.check {
		status, body, err := d.cl.do(rq.raw)
		if err != nil {
			return out, err
		}
		fmt.Fprintf(&answers, "%d %s", status, body)
	}
	out.digest = digest(answers.String())
	return out, nil
}

// prefeed sends every device's history and waits until it is applied.
func (d *daemon) prefeed(reqs []request) error {
	for _, rq := range reqs {
		status, _, err := d.cl.do(rq.raw)
		if err != nil {
			return err
		}
		if status/100 != 2 {
			return fmt.Errorf("set-up request failed with status %d", status)
		}
	}
	return d.cl.sync()
}

// sync waits until the daemon has applied every accepted feed record.
func (c *client) sync() error {
	status, _, err := c.do(syncRequest.raw)
	if err == nil && status != http.StatusNoContent {
		err = fmt.Errorf("sync answered %d", status)
	}
	return err
}

// client speaks HTTP/1.1 over one keep-alive connection with pre-built
// requests, so the load generator formats nothing while timing.
type client struct {
	r    *bufio.Reader
	w    net.Conn
	body []byte
}

// do sends one request and reads the response; the body is valid until
// the next call.
func (c *client) do(raw []byte) (status int, body []byte, err error) {
	if _, err := c.w.Write(raw); err != nil {
		return 0, nil, err
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, errors.New("malformed status line")
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, err
	}
	length := -1
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		if k, v, ok := bytes.Cut(line, []byte(":")); ok && bytes.EqualFold(k, []byte("Content-Length")) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, nil, err
			}
		}
	}
	if status == http.StatusNoContent {
		length = 0
	}
	if length < 0 {
		return 0, nil, errors.New("response without Content-Length")
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.r, c.body); err != nil {
		return 0, nil, err
	}
	return status, c.body, nil
}

// timedHandler times the server's handler per request path.
type timedHandler struct {
	mu           sync.Mutex
	decide, feed []float64 // µs
}

func (th *timedHandler) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.Now()
		h.ServeHTTP(w, r)
		us := float64(time.Since(t)) / 1e3
		th.mu.Lock()
		switch r.URL.Path {
		case "/v1/decide":
			th.decide = append(th.decide, us)
		case "/v1/feed":
			th.feed = append(th.feed, us)
		}
		th.mu.Unlock()
	})
}

func (th *timedHandler) reset() {
	th.mu.Lock()
	th.decide, th.feed = th.decide[:0], th.feed[:0]
	th.mu.Unlock()
}

func (th *timedHandler) medians() (decide, feed float64) {
	th.mu.Lock()
	defer th.mu.Unlock()
	return quantile(th.decide, 0.5), quantile(th.feed, 0.5)
}
