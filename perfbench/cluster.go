package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The daemon stack: three WAL-backed endpointd nodes behind one
// cluster-mode routerd, the deployment ROADMAP's packet-to-durable-ack
// path runs through.
const (
	endpointShards = 4
	replicas       = 2
	writeQuorum    = 2
	clusterSecret  = "perfbench-cluster-secret"
	abpMaster      = "0123456789abcdef"
	clusterNodes   = 3
	bootTimeout    = 60 * time.Second
)

// proc is one daemon process the benchmark started.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{}
	// maxRSSKB is the process's peak resident set (VmHWM), polled from
	// /proc while it runs and final once done is closed. The rusage of
	// a reaped child is no use here: its high-water mark starts at the
	// parent's footprint when it was forked.
	maxRSSKB int64
}

// rssPoll is how often a daemon's peak resident set is read. VmHWM is a
// high-water mark, so a poll misses only what a process allocates in
// its last interval before exiting.
const rssPoll = 20 * time.Millisecond

// start launches a daemon with its output in logPath and registers it
// for cleanup. The kernel kills it if the benchmark dies first.
func (b *bench) start(name, bin string, args []string, logPath string) (*proc, error) {
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(b.bin, bin), args...)
	cmd.Stdout = lf
	cmd.Stderr = lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	exited := make(chan struct{})
	var polled atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		status := fmt.Sprintf("/proc/%d/status", cmd.Process.Pid)
		tick := time.NewTicker(rssPoll)
		defer tick.Stop()
		for {
			if kb := fieldKB(status, "VmHWM:"); kb > polled.Load() {
				polled.Store(kb)
			}
			select {
			case <-exited:
				return
			case <-tick.C:
			}
		}
	}()
	go func() {
		_ = cmd.Wait()
		close(exited)
		wg.Wait()
		lf.Close()
		p.maxRSSKB = polled.Load()
		close(p.done)
	}()
	b.mu.Lock()
	b.procs = append(b.procs, p)
	b.mu.Unlock()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop signals the process and waits for it to exit, killing it if it
// outlives timeout. It returns how long the exit took.
func (p *proc) stop(sig syscall.Signal, timeout time.Duration) (time.Duration, error) {
	begin := time.Now()
	if err := p.cmd.Process.Signal(sig); err != nil && !p.exited() {
		return 0, fmt.Errorf("signalling %s: %w", p.name, err)
	}
	select {
	case <-p.done:
		return time.Since(begin), nil
	case <-time.After(timeout):
		p.kill()
		return time.Since(begin), fmt.Errorf("%s did not exit within %v of %v", p.name, timeout, sig)
	}
}

// kill ends the process and waits until it has been reaped.
func (p *proc) kill() {
	if !p.exited() {
		_ = p.cmd.Process.Kill()
	}
	<-p.done
}

// Daemon ports are drawn below the kernel's ephemeral range. A port
// found free by binding port 0 and letting it go can be handed to an
// outgoing connection before the daemon binds it (the daemons' own
// connections to each other make that likely); ports below the range
// are never handed out implicitly. A port is also never reused within
// a run, so a restarted node's port cannot have been given away.
var (
	portMu   sync.Mutex
	portsOut = map[int]bool{}
	portRand = rand.New(rand.NewSource(int64(os.Getpid()) ^ time.Now().UnixNano()))
)

// freeAddr picks an unused loopback port below the ephemeral range.
func freeAddr() (string, error) {
	hi := 32768
	if data, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(data)); len(f) == 2 {
			if lo, err := strconv.Atoi(f[0]); err == nil && lo > 2048 {
				hi = lo
			}
		}
	}
	portMu.Lock()
	defer portMu.Unlock()
	for try := 0; try < 1000; try++ {
		port := 1024 + portRand.Intn(hi-1024)
		if portsOut[port] {
			continue
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		l, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		if err := l.Close(); err != nil {
			return "", err
		}
		portsOut[port] = true
		return addr, nil
	}
	return "", fmt.Errorf("no free loopback port below %d", hi)
}

// node is one endpointd slot; its address and data survive restarts.
type node struct {
	addr string
	dir  string
	proc *proc
	// peakKB is the largest peak RSS of any incarnation so far.
	peakKB int64
}

// stack is a running daemon cluster.
type stack struct {
	b       *bench
	dir     string
	nodes   [clusterNodes]*node
	router  *proc
	rAddr   string
	rPeakKB int64
	// routerArgs are kept so the router can be started again.
	routerArgs []string
	proxies    []*proxy
	client     *http.Client
}

func (s *stack) routerURL() string { return "http://" + s.rAddr }

// bootStack starts the three nodes and the router on fresh ports and
// data directories and returns once the router reports the cluster
// healthy. With tr set, a forwarding proxy per node sits between the
// router and the node and records a span per replica request.
func bootStack(b *bench, tr *Tracer, src *stream) (*stack, time.Duration, error) {
	dir, err := b.dir("cluster")
	if err != nil {
		return nil, 0, err
	}
	s := &stack{b: b, dir: dir, client: &http.Client{Timeout: 10 * time.Second}}
	for i := range s.nodes {
		addr, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		s.nodes[i] = &node{addr: addr, dir: filepath.Join(dir, fmt.Sprintf("node%d", i))}
		if err := os.MkdirAll(s.nodes[i].dir, 0o755); err != nil {
			return nil, 0, err
		}
	}
	if s.rAddr, err = freeAddr(); err != nil {
		return nil, 0, err
	}
	var peers []string
	for i, n := range s.nodes {
		url := "http://" + n.addr
		if tr != nil {
			px, err := startProxy(tr, i, url, src)
			if err != nil {
				s.teardown()
				return nil, 0, err
			}
			s.proxies = append(s.proxies, px)
			url = px.url
		}
		peers = append(peers, url)
	}

	begin := time.Now()
	for i := range s.nodes {
		if err := s.startNode(i); err != nil {
			s.teardown()
			return nil, 0, err
		}
	}
	s.routerArgs = []string{
		"-listen", s.rAddr,
		"-abp-master", abpMaster,
		"-cluster-peers", strings.Join(peers, ","),
		"-replicas", fmt.Sprint(replicas),
		"-write-quorum", fmt.Sprint(writeQuorum),
		"-cluster-secret", clusterSecret,
		"-heartbeat-every", "100ms",
	}
	if err := s.startRouter(); err != nil {
		s.teardown()
		return nil, 0, err
	}
	if err := s.awaitNodes(); err != nil {
		s.teardown()
		return nil, 0, err
	}
	if err := s.awaitHealthy(); err != nil {
		s.teardown()
		return nil, 0, err
	}
	return s, time.Since(begin), nil
}

func (s *stack) startNode(i int) error {
	n := s.nodes[i]
	p, err := s.b.start(fmt.Sprintf("endpointd%d", i), "endpointd", []string{
		"-listen", n.addr,
		"-master", fleetMaster,
		"-data-dir", filepath.Join(n.dir, "tsdb"),
		"-shards", fmt.Sprint(endpointShards),
		"-wal-fsync", "always",
		"-snapshot", filepath.Join(n.dir, "snapshot.json"),
		// Checkpoints happen at shutdown, where the benchmark times
		// them, never on a timer inside the measured phase.
		"-save-every", "10000h",
		"-cluster-secret", clusterSecret,
	}, filepath.Join(n.dir, "endpointd.log"))
	n.proc = p
	return err
}

// awaitNodes polls every node's /status until each answers.
func (s *stack) awaitNodes() error {
	for _, n := range s.nodes {
		if err := s.await(n.proc, n.addr, "/status", nil); err != nil {
			return err
		}
	}
	return nil
}

// awaitHealthy polls the router until it answers and reports healthy.
func (s *stack) awaitHealthy() error {
	return s.await(s.router, s.rAddr, "/status", func(body []byte) bool {
		var st struct {
			Health string `json:"health"`
		}
		return json.Unmarshal(body, &st) == nil && st.Health == "healthy"
	})
}

// await polls addr until path answers 200 (and ok accepts the body),
// failing early if p dies. The listener, not the process, is the
// readiness signal: daemons bind after their boot work. A refused
// connection costs microseconds, so the port is probed every 500µs.
func (s *stack) await(p *proc, addr, path string, ok func([]byte) bool) error {
	deadline := time.Now().Add(bootTimeout)
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("%s exited during boot (log in %s)", p.name, s.dir)
		}
		if conn, err := net.DialTimeout("tcp", addr, 100*time.Millisecond); err == nil {
			conn.Close()
			resp, err := c.Get("http://" + addr + path)
			if err == nil {
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr == nil && resp.StatusCode == http.StatusOK && (ok == nil || ok(body)) {
					return nil
				}
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("%s not ready at %s%s after %v", p.name, addr, path, bootTimeout)
}

func (s *stack) startRouter() error {
	p, err := s.b.start("routerd", "routerd", s.routerArgs, filepath.Join(s.dir, "routerd.log"))
	s.router = p
	return err
}

func (s *stack) stopRouter() {
	s.router.kill()
	s.rPeakKB = max(s.rPeakKB, s.router.maxRSSKB)
}

// checkpointNodes stops the router, then each node in turn with
// SIGTERM: endpointd writes its final checkpoint (snapshot, then WAL
// truncation) on the way out. One node at a time, so each sample is one
// checkpoint alone on the disk. Connections into the nodes are closed
// first, so their HTTP shutdown has nothing to drain and each time is
// the checkpoint's.
func (s *stack) checkpointNodes() ([]float64, error) {
	s.stopRouter()
	for _, px := range s.proxies {
		px.fwd.CloseIdleConnections()
	}
	var took []float64
	for _, n := range s.nodes {
		d, err := n.proc.stop(syscall.SIGTERM, 120*time.Second)
		// Commit what the checkpoint deleted, so its cost is not left
		// for the next node's checkpoint to pay.
		t0 := time.Now()
		syscall.Sync()
		d += time.Since(t0)
		n.peakKB = max(n.peakKB, n.proc.maxRSSKB)
		if err == nil && !n.proc.cmd.ProcessState.Success() {
			err = fmt.Errorf("%s exited with %v", n.proc.name, n.proc.cmd.ProcessState)
		}
		if err != nil {
			return nil, err
		}
		took = append(took, d.Seconds())
	}
	return took, nil
}

// crashAll kills the router and every node, as a power cut would.
func (s *stack) crashAll() {
	s.stopRouter()
	for _, n := range s.nodes {
		n.proc.kill()
		n.peakKB = max(n.peakKB, n.proc.maxRSSKB)
	}
}

// restartNodes boots every node again from its checkpoint and WAL and
// returns the time until all of them serve; it then starts the router
// again and waits, untimed, for it to see the cluster healthy.
func (s *stack) restartNodes() (time.Duration, error) {
	begin := time.Now()
	for i := range s.nodes {
		if err := s.startNode(i); err != nil {
			return 0, err
		}
	}
	if err := s.awaitNodes(); err != nil {
		return 0, err
	}
	took := time.Since(begin)
	if err := s.startRouter(); err != nil {
		return 0, err
	}
	return took, s.awaitHealthy()
}

// diskBytes sums every node's snapshot and WAL bytes.
func (s *stack) diskBytes() (int64, error) {
	var total int64
	for _, n := range s.nodes {
		sz, err := dirSize(n.dir, func(name string) bool { return !strings.HasSuffix(name, ".log") })
		if err != nil {
			return 0, err
		}
		total += sz
	}
	return total, nil
}

// storedPoints sums the readings every node reports as accepted.
func (s *stack) storedPoints() (int64, error) {
	var total int64
	for _, n := range s.nodes {
		var st struct {
			Stats struct{ Accepted int64 } `json:"stats"`
		}
		if err := getJSON(s.client, "http://"+n.addr+"/status", &st); err != nil {
			return 0, err
		}
		total += st.Stats.Accepted
	}
	return total, nil
}

// teardown kills every process of the stack, waits for each, records
// the peak memory and closes the proxies. The data directory goes with
// the run's.
func (s *stack) teardown() {
	if s.router != nil {
		s.stopRouter()
	}
	for _, n := range s.nodes {
		if n != nil && n.proc != nil {
			n.proc.kill()
			n.peakKB = max(n.peakKB, n.proc.maxRSSKB)
		}
	}
	for _, px := range s.proxies {
		px.close()
	}
	s.proxies = nil
}

// peakRSSMB is the summed peak resident memory of the four daemons, each
// taken over all its incarnations.
func (s *stack) peakRSSMB() float64 {
	kb := s.rPeakKB
	for _, n := range s.nodes {
		kb += n.peakKB
	}
	return float64(kb) / 1024
}

func dirSize(dir string, keep func(string) bool) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() && keep(d.Name()) {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			total += fi.Size()
		}
		return nil
	})
	return total, err
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// proxy forwards one node's traffic and records a span for every
// replica ingest request passing through it.
type proxy struct {
	tr   *Tracer
	node int
	url  string
	srv  *http.Server
	ln   net.Listener
	wg   sync.WaitGroup
	fwd  *http.Client
	dest string
	src  *stream

	mu      sync.Mutex
	records []replicaRecord
}

// replicaRecord is one replica request: its interval and the key of the
// first packet it carried, which ties it to the client operation.
type replicaRecord struct {
	start, end int64
	key        uint64
	ok         bool
}

func startProxy(tr *Tracer, node int, dest string, src *stream) (*proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	px := &proxy{
		tr: tr, node: node, dest: dest, src: src, ln: ln,
		url: "http://" + ln.Addr().String(),
		fwd: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
	px.srv = &http.Server{Handler: px}
	px.wg.Add(1)
	go func() {
		defer px.wg.Done()
		_ = px.srv.Serve(ln)
	}()
	return px, nil
}

func (px *proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := px.tr.Now()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, px.dest+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := px.fwd.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		w.Header()[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/ingest") {
		rec := replicaRecord{start: start, end: px.tr.Now(), ok: resp.StatusCode == http.StatusAccepted}
		if first := firstPacket(body); first != nil {
			rec.key = wireKey(first)
		}
		px.mu.Lock()
		px.records = append(px.records, rec)
		px.mu.Unlock()
	}
}

func (px *proxy) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := px.srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		_ = px.srv.Close()
	}
	px.wg.Wait()
	px.fwd.CloseIdleConnections()
}

// flush turns the proxy's records into replica spans whose Op is the
// client operation carrying the packet and whose parent is that
// operation's span, named opName: opOf maps a stream position to the
// operation.
func (px *proxy) flush(opName string, opOf func(pos int) uint64) {
	px.mu.Lock()
	recs := px.records
	px.records = nil
	px.mu.Unlock()
	parents := map[uint64]uint64{}
	for _, s := range px.tr.Named(opName) {
		parents[s.Op] = s.ID
	}
	for _, r := range recs {
		var op uint64
		if pos := px.src.lookup(r.key); pos >= 0 {
			op = opOf(pos)
		}
		px.tr.Add(Span{Name: "cluster.replica", Op: op, Parent: parents[op], Start: r.start, End: r.end, Node: px.node})
	}
}
