// Command perfbench is the repository's end-to-end benchmark: packet to
// durable acknowledgement through the real routerd and endpointd
// binaries, the paper's century simulator, and the archive's checkpoint,
// restart and query path, on four named workloads.
//
//	bash perfbench/run.sh --workload backlog_drain --seed 1 --seconds 10 --trace 0
//
// Every workload runs the same lifecycle — set up the system under test,
// drive the workload's traffic for --seconds, checkpoint, restart, query
// with a correctness oracle, and run the simulator — so every end-to-end
// metric exists on every workload; the workload decides which phase is
// large. --trace 0 prints the end-to-end metrics. --trace 1 runs the
// workload untraced and then traced, replays the same inputs in-process
// stage by stage, and prints the per-layer metrics. The last line of
// standard output is the JSON result; .bench_out/ gets the full report
// (host, settings, both passes, tracing overhead, attribution) and, for
// traced runs, every span.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// heldOutSeed is never used while baselining; later performance claims
// confirm on it.
const heldOutSeed = 90210

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees, in report order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_pps", "1/s"},
	{"frame_ack_p50_ms", "ms"},
	{"frame_ack_p99_ms", "ms"},
	{"packet_ack_p50_ms", "ms"},
	{"packet_ack_p99_ms", "ms"},
	{"sim_s", "s"},
	{"checkpoint_s", "s"},
	{"boot_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"disk_bytes_per_point", "B"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the traced run's metrics, in report order.
var perLayer = []metricDef{
	{"batch.split_ns_per_frame", "ns"},
	{"telemetry.derive_key_ns", "ns"},
	{"telemetry.verify_ns", "ns"},
	{"telemetry.verifier_ns", "ns"},
	{"telemetry.guard_ns", "ns"},
	{"tsdb.group_commit_ns_per_frame", "ns"},
	{"tsdb.fsyncs_per_frame", "count"},
	{"tsdb.append_sync_ns", "ns"},
	{"tsdb.memtable_ns_per_packet", "ns"},
	{"tsdb.wal_bytes_per_point", "B"},
	{"tsdb.replay_s", "s"},
	{"cloud.http_ns_per_op", "ns"},
	{"cloud.ingest_batch_ns_per_frame", "ns"},
	{"cloud.ingest_ns_per_packet", "ns"},
	{"cloud.snapshot_write_s", "s"},
	{"cloud.snapshot_bytes_per_point", "B"},
	{"cloud.snapshot_read_s", "s"},
	{"cloud.replay_wal_s", "s"},
	{"cloud.checkpoint_stall_ms", "ms"},
	{"cluster.router_self_ms", "ms"},
	{"cluster.replica_rtt_p50_ms", "ms"},
	{"cluster.replica_rtt_p99_ms", "ms"},
	{"cluster.quorum_wait_ms", "ms"},
	{"cluster.replica_requests_per_op", "count"},
	{"rollup.fold_s", "s"},
	{"query.window_ns", "ns"},
	{"query.items_per_window", "count"},
	{"query.uptime_ms", "ms"},
	{"query.topgaps_ms", "ms"},
	{"sim.admit_s", "s"},
	{"sim.admit_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"trace.unattributed_share", "ratio"},
}

// workloads maps each workload name to its pass: one full lifecycle of
// the workload, traced when tr is non-nil.
var workloads = map[string]func(b *bench, tr *Tracer) (*pass, error){
	"backlog_drain": runBacklogDrain,
	"steady_bare":   runSteadyBare,
	"sim_century":   runSimCentury,
	"archive":       runArchive,
}

// daemonWorkloads drive the routerd and endpointd binaries; the others
// run in-process.
var daemonWorkloads = map[string]bool{"backlog_drain": true, "steady_bare": true}

// pass is the outcome of one lifecycle of a workload.
type pass struct {
	metrics   map[string]float64
	attempted int
	failed    int
	// problems are failed correctness checks; any one makes the run
	// incorrect.
	problems []string
	// details go to the report file only.
	details map[string]any
	// stages is what the in-process stage replay needs from this pass.
	stages *stageInput
	// e2eName/e2e are the operation latency the attribution splits: its
	// traced median is compared with the sum of the stage medians.
	e2eName string
	e2e     []time.Duration
}

func newPass() *pass {
	return &pass{metrics: map[string]float64{}, details: map[string]any{}}
}

func (p *pass) fail(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// bench is one invocation's settings and the resources it must release
// on every exit path.
type bench struct {
	root     string
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string
	out      string
	runDir   string

	mu    sync.Mutex
	procs []*proc
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		root     = flag.String("root", ".", "repository root holding .bench_build/bin")
		workload = flag.String("workload", "", "workload name: backlog_drain | steady_bare | sim_century | archive")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {%s} --seed N --seconds N --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	b := &bench{
		root:     abs,
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		bin:      filepath.Join(abs, ".bench_build", "bin"),
		out:      filepath.Join(abs, ".bench_out"),
	}
	if err := b.prepare(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer b.cleanup()

	// Signals end the run through the same cleanup as every other path.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		if _, ok := <-sigs; ok {
			b.cleanup()
			os.Exit(130)
		}
	}()

	line, err := b.execute(fn)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	fmt.Println(line)
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// prepare creates this run's private data directory and removes any
// left behind by runs that were killed.
func (b *bench) prepare() error {
	if daemonWorkloads[b.workload] {
		if _, err := os.Stat(filepath.Join(b.bin, "endpointd")); err != nil {
			return fmt.Errorf("daemons not built (run through perfbench/run.sh): %w", err)
		}
	}
	base := filepath.Join(b.root, ".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	entries, _ := os.ReadDir(base)
	for _, e := range entries {
		pidStr, _, _ := strings.Cut(e.Name(), "-")
		if pid, err := strconv.Atoi(pidStr); err == nil && pid != os.Getpid() && syscall.Kill(pid, 0) != nil {
			_ = os.RemoveAll(filepath.Join(base, e.Name()))
		}
	}
	// Start from a settled disk: flush what the build and earlier runs
	// left for the next journal commit.
	syscall.Sync()
	dir, err := os.MkdirTemp(base, fmt.Sprintf("%d-%s-", os.Getpid(), b.workload))
	if err != nil {
		return err
	}
	b.runDir = dir
	return os.MkdirAll(b.out, 0o755)
}

// cleanup kills every daemon still running, waits for each, and removes
// the run's data. Safe to call more than once.
func (b *bench) cleanup() {
	b.mu.Lock()
	procs := b.procs
	b.procs = nil
	b.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	if b.runDir != "" {
		t0 := time.Now()
		_ = os.RemoveAll(b.runDir)
		// Commit the deletions now: the file system discards freed
		// blocks at its next journal commit, which would otherwise stall
		// the fsyncs of whatever runs next.
		syscall.Sync()
		b.logf("removed the run's data in %v", time.Since(t0))
	}
}

// dir returns a fresh directory under the run's data directory.
func (b *bench) dir(name string) (string, error) {
	return os.MkdirTemp(b.runDir, name+"-")
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// execute runs the workload's passes and renders the result line.
func (b *bench) execute(fn func(*bench, *Tracer) (*pass, error)) (string, error) {
	started := time.Now()
	plain, err := fn(b, nil)
	if err != nil {
		return "", err
	}
	report := map[string]any{
		"workload": b.workload,
		"seed":     b.seed,
		"seconds":  b.seconds,
		"trace":    b.trace,
		"host":     hostInfo(b.runDir),
		"settings": settings(),
		"untraced": passReport(plain),
	}
	reported := plain.metrics
	defs := endToEnd
	attempted, failed, problems := plain.attempted, plain.failed, plain.problems
	if b.trace {
		tr := newTracer()
		traced, err := fn(b, tr)
		if err != nil {
			return "", fmt.Errorf("traced pass: %w", err)
		}
		layers, attribution, err := replayStages(b, tr, traced)
		if err != nil {
			return "", fmt.Errorf("stage replay: %w", err)
		}
		overhead := map[string]float64{}
		for _, m := range endToEnd {
			if u := plain.metrics[m.name]; u != 0 {
				overhead[m.name] = traced.metrics[m.name]/u - 1
			}
		}
		primary := primaryLatency[b.workload]
		layers["trace.overhead_share"] = overhead[primary]
		report["traced"] = passReport(traced)
		report["tracing_overhead_share"] = overhead
		report["attribution"] = attribution
		report["per_layer"] = layers
		spansPath := filepath.Join(b.out, b.runName()+".spans.jsonl")
		if err := tr.WriteFile(spansPath); err != nil {
			return "", fmt.Errorf("writing spans: %w", err)
		}
		report["spans_file"] = spansPath
		report["spans"] = tr.Len()
		b.printTrace(overhead, attribution)
		reported, defs = layers, perLayer
		attempted += traced.attempted
		failed += traced.failed
		problems = append(problems, traced.problems...)
	}
	report["wall_s"] = time.Since(started).Seconds()
	report["problems"] = problems

	metrics := map[string]map[string]any{}
	for _, m := range defs {
		v, ok := reported[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s was not measured", m.name)
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	for _, p := range problems {
		b.logf("CHECK FAILED: %s", p)
	}
	b.printMetrics(defs, reported, attempted, failed)
	if err := writeJSON(filepath.Join(b.out, b.runName()+".json"), report); err != nil {
		return "", err
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(problems) == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	return string(line), err
}

// primaryLatency is the end-to-end latency each workload's tracing
// overhead is quoted on.
var primaryLatency = map[string]string{
	"backlog_drain": "frame_ack_p50_ms",
	"steady_bare":   "packet_ack_p50_ms",
	"sim_century":   "sim_s",
	"archive":       "checkpoint_s",
}

func (b *bench) runName() string {
	trace := 0
	if b.trace {
		trace = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d", b.workload, b.seed, trace)
}

func (b *bench) printMetrics(defs []metricDef, vals map[string]float64, attempted, failed int) {
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v attempted=%d failed=%d\n", b.workload, b.seed, b.seconds, b.trace, attempted, failed)
	for _, m := range defs {
		fmt.Printf("  %-34s %14.6g %s\n", m.name, vals[m.name], m.unit)
	}
}

func (b *bench) printTrace(overhead map[string]float64, at *attribution) {
	fmt.Printf("perfbench %s tracing overhead (traced/untraced - 1):\n", b.workload)
	for _, m := range endToEnd {
		fmt.Printf("  %-34s %+8.1f%%\n", m.name, 100*overhead[m.name])
	}
	fmt.Printf("perfbench %s attribution of %s median %.0f ns:\n", b.workload, at.Operation, at.EndToEndNS)
	for _, s := range at.Stages {
		fmt.Printf("  %-34s %12.0f ns\n", s.Name, s.MedianNS)
	}
	fmt.Printf("  %-34s %12.0f ns (%.1f%%)\n", "unattributed", at.UnattributedNS, 100*at.UnattributedShare)
}

func passReport(p *pass) map[string]any {
	return map[string]any{
		"metrics":   p.metrics,
		"attempted": p.attempted,
		"failed":    p.failed,
		"problems":  p.problems,
		"details":   p.details,
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// settings records the knobs every result depends on.
func settings() map[string]any {
	return map[string]any{
		"wal_fsync":            "always",
		"endpoint_shards":      endpointShards,
		"replicas":             replicas,
		"write_quorum":         writeQuorum,
		"frame_packets":        framePackets,
		"senders":              senders,
		"steady_bare_rate_pps": steadyRate,
		"fleet_devices":        fleetDevices,
		"archive_points":       archiveDevices * archivePointsPerDevice,
		"archive_trickle_pps":  float64(tricklePackets) / trickleEvery.Seconds(),
		"archive_burst":        fmt.Sprintf("%d frames of %d packets a cycle, closed loop, one sender", burstRounds*archiveDevices/burstPackets, burstPackets),
		"held_out_seed":        heldOutSeed,
		"stage_replay_packets": stagePackets,
		"setup_repeats":        map[string]int{"cluster": clusterSetups, "archive": setupRepeats, "sim": simSetups},
		"restarts":             restarts,
		"archive_cycles_min":   map[string]int{"untraced_run": archiveCycles, "traced_run_pass": tracedCycles},
		"gomaxprocs_benchmark": runtime.GOMAXPROCS(0),
		"gomaxprocs_daemons":   daemonGOMAXPROCS(),
		"go_version":           runtime.Version(),
		"checkpoint_on":        "endpointd shutdown (daemon workloads), Store.CheckpointAt (in-process)",
		"steady_bare_loop":     "open, Poisson arrivals",
		"backlog_drain_loop":   "closed",
	}
}

func daemonGOMAXPROCS() int {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// hostInfo records the machine the numbers were measured on.
func hostInfo(dataDir string) map[string]any {
	info := map[string]any{
		"nproc":   runtime.NumCPU(),
		"goos":    runtime.GOOS,
		"goarch":  runtime.GOARCH,
		"kernel":  readTrim("/proc/sys/kernel/osrelease"),
		"cpu":     cpuModel(),
		"data_fs": fsType(dataDir),
		// Mount options matter here: with "discard", deleting a file
		// waits on the device, which is most of a checkpoint's WAL
		// truncation on the reference host.
		"data_fs_options": mountOptions(dataDir),
	}
	return info
}

func readTrim(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the file system holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x65735546: "fuse",
		0x6969:     "nfs",
		0x2FC12FC1: "zfs",
		0x5346544e: "ntfs",
		0xF2F52010: "f2fs",
		0x62656572: "sysfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// mountOptions returns the options of the mount holding dir: the
// longest mount point in /proc/self/mounts that prefixes it.
func mountOptions(dir string) string {
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, opts := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, opts = mp, f[3]
		}
	}
	return opts
}
