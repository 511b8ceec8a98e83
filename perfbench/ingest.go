package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/telemetry"
)

// The two daemon workloads share one cluster lifecycle; they differ in
// the traffic the measured phase offers.
const (
	// fleetDevices is the device fleet both daemon workloads draw from:
	// larger than the endpoint's per-scratch verifier cache (4096), so
	// the cache is exercised with misses, and enough devices that every
	// shard of every node is touched.
	fleetDevices = 20000
	framePackets = 256
	// senders is the client connection count: at most nproc on the
	// 2-core reference host, all from one process.
	senders = 2
	// backlogPPS sizes the backlog: --seconds of it at about the rate
	// the batched path drains on the reference host. The backlog is
	// drained to the end however long that takes, so every later phase
	// (checkpoint, restart, read-back) sees the same amount of data
	// whatever the drain rate was.
	backlogPPS = 200000
	// steadyRate is the steady_bare offered load: about 6x the 165
	// packets/s of hourly reports from Los Angeles' 320,000 poles,
	// 61,315 intersections and 210,000 streetlights, and about half of
	// the bare path's ~2.3k packets/s capacity on the reference host.
	steadyRate = 1000.0
	// setupRepeats is how many times a run sets its system up; setup_s
	// is the median. Booting the daemon cluster takes milliseconds, so
	// it is set up more often than the archive's second-long boot.
	setupRepeats  = 3
	clusterSetups = 5
	// queryCount is the read-back sample size of one round: enough
	// queries that the round's p99 has ten samples beyond it.
	queryCount = 1000
	// queryRounds is how many times the sample is read back; the query
	// metrics are medians over rounds.
	queryRounds = 5
	// restarts is how many times the cluster is booted from disk.
	restarts = 5
	// requestTimeout bounds one request. A failed or refused request
	// counts with this latency, which misses any latency limit.
	requestTimeout = 10 * time.Second
)

func newSenderClient() *http.Client {
	return &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// post sends one ingest request and reports whether it was
// acknowledged (202).
func post(c *http.Client, url string, body []byte) bool {
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusAccepted
}

// firstPacket returns the first packet of an ingest body: the body
// itself for a bare packet, the frame's first packet for a batch.
func firstPacket(body []byte) []byte {
	if len(body) == telemetry.PacketSize {
		return body
	}
	payload, n, err := batch.Split(body, 0)
	if err != nil || n == 0 {
		return nil
	}
	return batch.Packet(payload, 0)
}

// inputs caches the generated inputs of a run, so the traced pass
// replays exactly the bytes the untraced pass sent.
var inputs sync.Map

func cached[T any](key string, build func() T) T {
	if v, ok := inputs.Load(key); ok {
		return v.(T)
	}
	v := build()
	inputs.Store(key, v)
	return v
}

func runBacklogDrain(b *bench, tr *Tracer) (*pass, error) {
	type backlog struct {
		src    *stream
		frames [][]byte
	}
	in := cached("backlog", func() backlog {
		src := zipfStream(b.seed, fleetDevices, backlogPPS*b.seconds, framePackets)
		return backlog{src: src, frames: src.frameViews()}
	})
	p := newPass()
	s, err := setupStack(b, tr, in.src, p)
	if err != nil {
		return nil, err
	}
	defer s.teardown()

	// Closed loop: each sender posts its next frame as soon as the
	// previous one is answered, until the backlog is drained.
	var next atomic.Int64
	lat := make([]time.Duration, len(in.frames))
	acked := make([]bool, len(in.frames))
	begin := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newSenderClient()
			defer c.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(in.frames) {
					return
				}
				start := tr.Now()
				t0 := time.Now()
				ok := post(c, s.routerURL()+"/ingest/batch", in.frames[i])
				lat[i] = time.Since(t0)
				acked[i] = ok
				tr.Add(Span{Name: "client.op", Op: uint64(i) + 1, Start: start, End: start + int64(lat[i])})
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(begin)

	frameLat := lat
	ackedPackets := 0
	for i := range in.frames {
		p.attempted++
		if !acked[i] {
			p.failed++
			frameLat[i] = requestTimeout
		} else {
			ackedPackets += framePacketsAt(in.src, i)
		}
	}
	p.metrics["ingest_pps"] = float64(ackedPackets) / elapsed.Seconds()
	// Closed loop: a packet is due when its frame is sent, so its ack
	// latency is its frame's.
	setWindowLatency(p, "frame_ack", frameLat)
	setWindowLatency(p, "packet_ack", frameLat)
	p.details["drain_s"] = elapsed.Seconds()
	p.details["packets_acked"] = ackedPackets
	p.e2eName, p.e2e = "frame_ack", frameLat

	for _, px := range s.proxies {
		px.flush("client.op", func(pos int) uint64 { return uint64(pos/framePackets) + 1 })
	}
	isAcked := func(pos int) bool { f := pos / framePackets; return f < len(acked) && acked[f] }
	if err := stackTail(b, tr, s, in.src, isAcked, p); err != nil {
		return nil, err
	}
	p.stages = streamStages(in.src, tr != nil)
	return p, simPhase(b, tr, p)
}

// framePacketsAt is the packet count of frame i of src.
func framePacketsAt(src *stream, i int) int {
	return min(framePackets, src.len()-i*framePackets)
}

func runSteadyBare(b *bench, tr *Tracer) (*pass, error) {
	type steady struct {
		src *stream
		due []time.Duration
	}
	n := int(steadyRate) * b.seconds
	in := cached("steady", func() steady {
		return steady{src: zipfStream(b.seed, fleetDevices, n, 0), due: poissonSchedule(b.seed+1, steadyRate, n)}
	})
	p := newPass()
	s, err := setupStack(b, tr, in.src, p)
	if err != nil {
		return nil, err
	}
	defer s.teardown()

	// Open loop: each connection takes the next packet in schedule
	// order and sends it at its due time. A packet due while both
	// connections are busy waits for the first to free up; it is late,
	// and its latency counts from when it was due.
	frameLat := make([]time.Duration, n)
	packetLat := make([]time.Duration, n)
	late := make([]time.Duration, n)
	acked := make([]bool, n)
	var next atomic.Int64
	begin := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newSenderClient()
			defer c.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := begin.Add(in.due[i])
				waitUntil(due)
				start := tr.Now()
				t0 := time.Now()
				late[i] = t0.Sub(due)
				acked[i] = post(c, s.routerURL()+"/ingest", in.src.wire(i))
				end := time.Now()
				frameLat[i] = end.Sub(t0)
				packetLat[i] = end.Sub(due)
				tr.Add(Span{Name: "client.op", Op: uint64(i) + 1, Start: start, End: start + int64(frameLat[i])})
			}
		}()
	}
	// Backlog: packets due but not yet taken by a connection, sampled
	// every 100ms.
	var backlog []int64
	tick := time.NewTicker(100 * time.Millisecond)
	for int(next.Load()) < n {
		<-tick.C
		due := sort.Search(n, func(i int) bool { return in.due[i] > time.Since(begin) })
		backlog = append(backlog, max(0, int64(due)-next.Load()))
	}
	tick.Stop()
	wg.Wait()
	elapsed := time.Since(begin)

	ackedCount := 0
	for i := range acked {
		p.attempted++
		if acked[i] {
			ackedCount++
			continue
		}
		p.failed++
		frameLat[i], packetLat[i] = requestTimeout, requestTimeout
	}
	p.metrics["ingest_pps"] = float64(ackedCount) / elapsed.Seconds()
	setWindowLatency(p, "frame_ack", frameLat)
	setWindowLatency(p, "packet_ack", packetLat)
	p.details["offered_rate_pps"] = steadyRate
	p.details["generator_lateness_p50_ms"] = median(durationsMS(late))
	p.details["generator_lateness_max_ms"] = quantile(durationsMS(late), 1)
	p.details["backlog_samples"] = backlog
	if grew, why := backlogGrew(backlog); grew {
		p.fail("steady_bare: the open loop fell behind (%s); the offered rate is above what this host sustains", why)
	}
	p.e2eName, p.e2e = "packet_ack", packetLat

	for _, px := range s.proxies {
		px.flush("client.op", func(pos int) uint64 { return uint64(pos) + 1 })
	}
	isAcked := func(pos int) bool { return pos < len(acked) && acked[pos] }
	if err := stackTail(b, tr, s, in.src, isAcked, p); err != nil {
		return nil, err
	}
	p.stages = streamStages(in.src, tr != nil)
	return p, simPhase(b, tr, p)
}

// waitUntil sleeps until t. The last stretch is spun, because a timer
// wakes up to a few hundred microseconds late and that slack would be
// charged to the system under test as lateness.
func waitUntil(t time.Time) {
	const spin = 200 * time.Microsecond
	if d := time.Until(t); d > spin {
		time.Sleep(d - spin)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// backlogGrew reports whether the open loop's backlog grew over the run:
// the last quarter's mean above the first quarter's by more than 50ms
// of offered load.
func backlogGrew(samples []int64) (bool, string) {
	if len(samples) < 8 {
		return false, ""
	}
	q := len(samples) / 4
	mean := func(xs []int64) float64 {
		var t int64
		for _, x := range xs {
			t += x
		}
		return float64(t) / float64(len(xs))
	}
	first, last := mean(samples[:q]), mean(samples[len(samples)-q:])
	if last > first+steadyRate*0.05 {
		return true, fmt.Sprintf("mean backlog %.1f packets in the first quarter, %.1f in the last", first, last)
	}
	return false, ""
}

// setRoundLatency records the median over rounds of each round's median
// and p99: one slow round (a collection, a noisy neighbour) moves a
// pooled percentile, not the median of the rounds'.
func setRoundLatency(p *pass, prefix string, rounds [][]time.Duration) {
	var p50s, p99s []float64
	n := 0
	for _, r := range rounds {
		xs := durationsMS(r)
		p50s = append(p50s, median(xs))
		p99s = append(p99s, p99(xs))
		n += len(xs)
	}
	p.metrics[prefix+"_p50_ms"] = median(p50s)
	p.metrics[prefix+"_p99_ms"] = median(p99s)
	p.details[prefix+"_samples"] = n
	p.details[prefix+"_round_p50_ms"] = p50s
	p.details[prefix+"_round_p99_ms"] = p99s
}

// latencyWindow is how many consecutive operations one window of an
// ingest latency sample holds: about a second of traffic on the daemon
// workloads, enough for a p99 with ten samples beyond it.
const latencyWindow = 1000

// setWindowLatency splits a latency sample, in operation order, into
// windows of latencyWindow and records the median over windows of each
// window's median and p99.
func setWindowLatency(p *pass, prefix string, lat []time.Duration) {
	var ws [][]time.Duration
	for lo := 0; lo < len(lat); lo += latencyWindow {
		hi := min(lo+latencyWindow, len(lat))
		if len(lat)-hi < latencyWindow/2 {
			hi = len(lat) // fold a short tail into the last window
		}
		ws = append(ws, lat[lo:hi])
		lo = hi - latencyWindow
	}
	setRoundLatency(p, prefix, ws)
}

// setupStack boots the cluster clusterSetups times and keeps the last
// one; setup_s is the median boot time.
func setupStack(b *bench, tr *Tracer, src *stream, p *pass) (*stack, error) {
	// Collect the input generator's garbage before anything is timed.
	runtime.GC()
	debug.FreeOSMemory()
	var boots []float64
	var s *stack
	for i := 0; i < clusterSetups; i++ {
		if s != nil {
			s.teardown()
		}
		var took time.Duration
		var err error
		start := tr.Now()
		s, took, err = bootStack(b, tr, src)
		if err != nil {
			return nil, fmt.Errorf("booting the cluster: %w", err)
		}
		tr.Add(Span{Name: "phase.setup", Start: start, End: start + int64(took)})
		boots = append(boots, took.Seconds())
	}
	p.metrics["setup_s"] = median(boots)
	p.details["setup_samples_s"] = boots
	return s, nil
}

// stackTail is the rest of a daemon workload's lifecycle: checkpoint
// every node on shutdown, restart the cluster from disk, and read a
// seeded sample of acknowledged packets back through the router.
func stackTail(b *bench, tr *Tracer, s *stack, src *stream, acked func(pos int) bool, p *pass) error {
	start := tr.Now()
	cps, err := s.checkpointNodes()
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tr.Add(Span{Name: "phase.checkpoint", Start: start, End: tr.Now()})
	p.metrics["checkpoint_s"] = median(cps)
	p.details["checkpoint_samples_s"] = cps
	disk, err := s.diskBytes()
	if err != nil {
		return err
	}

	// Restart: after the checkpoints, and then twice more after crashing
	// every node, so boot_s is a median; each boot reads the same state,
	// and the read-back below follows a crash.
	var boots []float64
	for k := 0; k < restarts; k++ {
		if k > 0 {
			s.crashAll()
		}
		start = tr.Now()
		took, err := s.restartNodes()
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		tr.Add(Span{Name: "phase.restart", Start: start, End: start + int64(took)})
		boots = append(boots, took.Seconds())
	}
	p.metrics["boot_s"] = median(boots)
	p.details["boot_samples_s"] = boots
	points, err := s.storedPoints()
	if err != nil {
		return err
	}
	if points == 0 {
		p.fail("no readings stored after the restart")
		points = 1
	}
	p.metrics["disk_bytes_per_point"] = float64(disk) / float64(points)
	p.details["stored_points"] = points

	setRoundLatency(p, "query", historyOracle(b, tr, s, src, acked, p))
	s.teardown()
	p.metrics["peak_rss_mb"] = s.peakRSSMB()
	p.details["peak_rss_kb_router_nodes"] = []int64{s.rPeakKB, s.nodes[0].peakKB, s.nodes[1].peakKB, s.nodes[2].peakKB}
	return nil
}

// historyOracle reads queryCount seeded devices back through the
// router's GET /history, queryRounds times, after the restarts, and
// requires every acknowledged (device, seq) of each to be there exactly
// once with its value intact. It returns each round's latencies.
func historyOracle(b *bench, tr *Tracer, s *stack, src *stream, acked func(pos int) bool, p *pass) [][]time.Duration {
	want := map[int32][]uint32{}
	for i := 0; i < src.len(); i++ {
		if acked(i) {
			want[src.dev[i]] = append(want[src.dev[i]], src.seq[i])
		}
	}
	devs := make([]int32, 0, len(want))
	for d := range want {
		devs = append(devs, d)
	}
	if len(devs) == 0 {
		p.fail("no packet was acknowledged")
		return [][]time.Duration{{requestTimeout}}
	}
	// A stratified sample over devices ranked by how much history they
	// hold, from a seeded offset: every run reads the same mix of short
	// and long histories, so the seed moves which devices are read, not
	// how much is read.
	sort.Slice(devs, func(i, j int) bool {
		if a, b := len(want[devs[i]]), len(want[devs[j]]); a != b {
			return a < b
		}
		return devs[i] < devs[j]
	})
	r := rand.New(rand.NewSource(b.seed + 7))
	picks := make([]int32, queryCount)
	for q := range picks {
		picks[q] = devs[int((float64(q)+r.Float64())*float64(len(devs))/queryCount)]
	}
	r.Shuffle(len(picks), func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })
	p.details["oracle_devices"] = len(devs)
	var rounds [][]time.Duration
	reported := 0
	// Round 0 warms the restarted processes up; it is checked but not
	// timed.
	for round := 0; round <= queryRounds; round++ {
		// Two readers, like the two writers: each round is a closed loop
		// over the seeded sample.
		lat := make([]time.Duration, queryCount)
		errs := make([]error, queryCount)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < senders; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := &http.Client{Timeout: requestTimeout}
				defer c.CloseIdleConnections()
				for {
					q := int(next.Add(1) - 1)
					if q >= queryCount {
						return
					}
					d := picks[q]
					url := fmt.Sprintf("%s/history?device=%s", s.routerURL(), deviceID(int(d)))
					start := tr.Now()
					t0 := time.Now()
					body, status, err := fetch(c, url)
					lat[q] = time.Since(t0)
					tr.Add(Span{Name: "client.query", Start: start, End: start + int64(lat[q])})
					if err == nil && status != http.StatusOK {
						err = fmt.Errorf("status %d", status)
					}
					if err == nil {
						err = checkHistory(body, int(d), want[d])
					}
					errs[q] = err
				}
			}()
		}
		wg.Wait()
		for q, err := range errs {
			p.attempted++
			if err == nil {
				continue
			}
			p.failed++
			lat[q] = requestTimeout
			if reported < 5 {
				p.fail("history of device %d: %v", picks[q], err)
				reported++
			}
		}
		if round > 0 {
			rounds = append(rounds, lat)
		}
	}
	return rounds
}

func fetch(c *http.Client, url string) ([]byte, int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// checkHistory requires each wanted sequence number exactly once, with
// the value its device reported.
func checkHistory(body []byte, dev int, seqs []uint32) error {
	var recs []struct {
		Seq   uint32  `json:"seq"`
		Value float32 `json:"value"`
	}
	if err := json.Unmarshal(body, &recs); err != nil {
		return err
	}
	seen := make(map[uint32]int, len(recs))
	for _, rec := range recs {
		seen[rec.Seq]++
		if rec.Value != valueOf(dev, rec.Seq) {
			return fmt.Errorf("seq %d holds value %v, want %v", rec.Seq, rec.Value, valueOf(dev, rec.Seq))
		}
	}
	for _, q := range seqs {
		switch seen[q] {
		case 1:
		case 0:
			return fmt.Errorf("acknowledged seq %d is missing", q)
		default:
			return fmt.Errorf("seq %d is stored %d times", q, seen[q])
		}
	}
	return nil
}
