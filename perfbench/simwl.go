package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"centuryscale/internal/cloud"
	"centuryscale/internal/core"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/sim"
	"centuryscale/internal/telemetry"
	"centuryscale/internal/tsdb"
)

// a14Config is the A14 ablation's configuration (one hundred simulated
// years, 20 devices reporting daily, failed devices replaced), as
// internal/experiments builds it.
func a14Config(seed uint64) core.ExperimentConfig {
	cfg := core.DefaultExperiment(core.OwnedWPAN)
	cfg.Seed = seed
	cfg.Horizon = sim.Years(100)
	cfg.NumDevices = 20
	cfg.ReportInterval = sim.Day
	cfg.ReplaceFailedDevices = true
	cfg.DeviceReplaceLag = 60 * sim.Day
	return cfg
}

// simRun is one simulator run and its wall time.
type simRun struct {
	out  *core.Outcome
	took time.Duration
}

func runSim(cfg core.ExperimentConfig) simRun {
	begin := time.Now()
	out := core.RunExperiment(cfg)
	return simRun{out: out, took: time.Since(begin)}
}

// digest fingerprints everything a run reports, so two runs of one seed
// can be compared.
func digest(o *core.Outcome) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %v %v %v\n",
		o.PacketsSent, o.PacketsDelivered, o.PacketsAccepted, o.DevicesAliveAtEnd,
		o.DeviceReplacements, o.GatewayFailures, o.GatewayReplaced, o.WalletRemaining,
		o.WeeklyUptime, o.LongestGap, o.Ledger.Total())
	fmt.Fprintln(h, o.YearlyAccepted, o.YearlyAliveDevices)
	for _, d := range o.Diary {
		fmt.Fprintln(h, int64(d.At), d.What)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func checkSimCount(o *core.Outcome, p *pass) {
	if got := o.Store.Count(); got != o.PacketsAccepted {
		p.fail("simulator: Store.Count() = %d, PacketsAccepted = %d", got, o.PacketsAccepted)
	}
}

// simSetups is how many times sim_century sets the simulator up; one
// set-up takes a fraction of a millisecond, so the median needs many.
const simSetups = 101

// simCheckpoints is how many times sim_century checkpoints the century
// and boots it back; a checkpoint is a tenth of a second, mostly disk
// time, so it is repeated often enough for a steady median.
const simCheckpoints = 6

// simRepeats is how many A14 runs the simulator step of the daemon and
// archive workloads makes; sim_s is their median.
const simRepeats = 3

// simPhase is the simulator step of the daemon and archive workloads:
// simRepeats A14 runs, checked.
func simPhase(b *bench, tr *Tracer, p *pass) error {
	var sims []float64
	for i := 0; i < simRepeats; i++ {
		start := tr.Now()
		r := runSim(a14Config(uint64(b.seed)))
		tr.Add(Span{Name: "phase.sim", Start: start, End: start + int64(r.took)})
		sims = append(sims, r.took.Seconds())
		checkSimCount(r.out, p)
		if i == 0 && p.stages != nil && tr != nil {
			p.stages.sim = &r
		}
	}
	p.metrics["sim_s"] = median(sims)
	return nil
}

// acceptedStream re-seals a finished run's accepted readings, under the
// benchmark's fleet secret, in arrival order.
func acceptedStream(o *core.Outcome) (*stream, []time.Duration) {
	type rec struct {
		at  time.Duration
		dev lpwan.EUI64
		pkt telemetry.Packet
	}
	var recs []rec
	for _, dev := range o.Store.Devices() {
		for _, r := range o.Store.History(dev) {
			recs = append(recs, rec{r.At, dev, r.Packet})
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].at < recs[j].at })
	s := newStream(len(recs), 0)
	at := make([]time.Duration, len(recs))
	keys := map[lpwan.EUI64]telemetry.Key{}
	for i, r := range recs {
		k, ok := keys[r.dev]
		if !ok {
			k = telemetry.DeriveKey([]byte(fleetMaster), r.dev)
			keys[r.dev] = k
		}
		wire, err := r.pkt.Seal(k)
		if err != nil {
			panic(fmt.Sprintf("perfbench: resealing: %v", err)) // keys are 32 bytes and the store holds no NaN
		}
		copy(s.wire(i), wire)
		s.dev[i] = int32(deviceIndex(r.dev))
		s.seq[i] = r.pkt.Seq
		at[i] = r.at
	}
	return s, at
}

// admitReplay feeds a re-sealed accepted stream through a fresh
// in-memory Store.Ingest, the simulator's endpoint path, closed loop. It
// returns each call's latency and the time the whole stream took.
func admitReplay(s *stream, at []time.Duration, p *pass) ([]time.Duration, time.Duration) {
	store := cloud.NewStore(cloud.StaticKeys([]byte(fleetMaster)))
	lat := make([]time.Duration, s.len())
	begin := time.Now()
	for i := range lat {
		t0 := time.Now()
		err := store.Ingest(at[i], s.wire(i))
		lat[i] = time.Since(t0)
		if err != nil {
			p.fail("re-admitting the accepted stream: packet %d: %v", i, err)
			break
		}
	}
	return lat, time.Since(begin)
}

// admitFrames feeds the same stream through a fresh in-memory
// Store.IngestBatch in frames of framePackets, each stamped with the
// arrival of its last packet, closed loop, and returns each frame's
// latency.
func admitFrames(s *stream, at []time.Duration, p *pass) []time.Duration {
	store := cloud.NewStore(cloud.StaticKeys([]byte(fleetMaster)))
	frames := s.frames(framePackets)
	lat := make([]time.Duration, len(frames))
	for i, f := range frames {
		t0 := time.Now()
		res, err := store.IngestBatch(at[min((i+1)*framePackets, s.len())-1], f)
		lat[i] = time.Since(t0)
		if err != nil || res.Accepted != res.Total {
			p.fail("re-admitting the accepted stream in frames: frame %d: %d of %d accepted, %v", i, res.Accepted, res.Total, err)
			break
		}
	}
	return lat
}

func runSimCentury(b *bench, tr *Tracer) (*pass, error) {
	p := newPass()

	// Set-up: the simulator's fixed start-up cost, a run of the same
	// configuration one simulated week long.
	setupCfg := a14Config(uint64(b.seed))
	setupCfg.Horizon = sim.Week
	var boots []float64
	for i := 0; i < simSetups; i++ {
		boots = append(boots, runSim(setupCfg).took.Seconds())
	}
	p.metrics["setup_s"] = median(boots)

	// Measured phase: the century, repeated until --seconds is spent.
	var runs []simRun
	var sims, peaks []float64
	deadline := time.Now().Add(time.Duration(b.seconds) * time.Second)
	for len(runs) < 3 || time.Now().Before(deadline) {
		start := tr.Now()
		rss := startRSS()
		r := runSim(a14Config(uint64(b.seed)))
		peaks = append(peaks, rss.peakMB())
		tr.Add(Span{Name: "phase.sim", Start: start, End: start + int64(r.took)})
		checkSimCount(r.out, p)
		if len(runs) > 0 && digest(r.out) != digest(runs[0].out) {
			p.fail("simulator: seed %d gave a different outcome on run %d", b.seed, len(runs)+1)
		}
		p.attempted++
		sims = append(sims, r.took.Seconds())
		// Keep only the first run's outcome alive: it is what the later
		// phases use.
		if len(runs) == 0 {
			runs = append(runs, r)
		} else {
			runs = append(runs, simRun{took: r.took})
		}
	}
	first := runs[0]
	p.metrics["sim_s"] = median(sims)
	p.details["sim_runs"] = len(sims)
	p.details["digest"] = digest(first.out)

	// The endpoint the simulator ingests through: its accepted stream
	// re-sealed and re-admitted closed loop, packet by packet through
	// Store.Ingest (ingest_pps and the packet latencies) and frame by
	// frame through Store.IngestBatch (the frame latencies).
	acc, at := acceptedStream(first.out)
	lat, took := admitReplay(acc, at, p)
	p.metrics["ingest_pps"] = float64(acc.len()) / took.Seconds()
	setWindowLatency(p, "packet_ack", lat)
	setWindowLatency(p, "frame_ack", admitFrames(acc, at, p))
	p.e2eName, p.e2e = "packet_ack", lat

	// The century's archive, simCheckpoints times over: checkpoint it to
	// a fresh file, boot a store from that file, and run the query mix
	// twice on the restarted store. Interleaving the checkpoints with the
	// rest keeps one stall of the disk off most of them. The mix runs on
	// the store before the first checkpoint too; every answer must match
	// that round's.
	dir, err := b.dir("sim")
	if err != nil {
		return nil, err
	}
	mix := centuryMix(b.seed, first.out.Store, sim.Years(100))
	sv, err := serveStore(first.out.Store)
	if err != nil {
		return nil, err
	}
	lat0, answers0 := runMix(tr, sv.url, mix, p)
	sv.close()
	rounds := [][]time.Duration{lat0}
	var snap string
	var cps, bootTimes []float64
	for i := 0; i < simCheckpoints; i++ {
		snap = filepath.Join(dir, fmt.Sprintf("snapshot%d.json", i))
		start := tr.Now()
		t0 := time.Now()
		err := first.out.Store.Checkpoint(snap)
		if err == nil {
			err = syncDirs(dir)
		}
		if err != nil {
			return nil, fmt.Errorf("checkpointing the century store: %w", err)
		}
		took := time.Since(t0)
		tr.Add(Span{Name: "phase.checkpoint", Start: start, End: start + int64(took)})
		cps = append(cps, took.Seconds())

		start = tr.Now()
		t0 = time.Now()
		restored, err := bootStore(filepath.Join(dir, fmt.Sprintf("tsdb%d", i)), snap, endpointShards, false)
		if err != nil {
			return nil, err
		}
		took = time.Since(t0)
		tr.Add(Span{Name: "phase.restart", Start: start, End: start + int64(took)})
		bootTimes = append(bootTimes, took.Seconds())
		if a, b := restored.StorageStats().Points, first.out.Store.StorageStats().Points; a != b {
			p.fail("century store: %d readings after the restart, %d before", a, b)
		}
		sv, err := serveStore(restored)
		if err != nil {
			restored.Close()
			return nil, err
		}
		for k := 0; k < 2; k++ {
			lat, answers := runMix(tr, sv.url, mix, p)
			compareAnswers(mix, answers0, answers, p)
			rounds = append(rounds, lat)
		}
		sv.close()
		restored.Close()
	}
	p.metrics["checkpoint_s"] = median(cps)
	p.metrics["boot_s"] = median(bootTimes)
	fi, err := os.Stat(snap)
	if err != nil {
		return nil, err
	}
	p.metrics["disk_bytes_per_point"] = float64(fi.Size()) / float64(max(first.out.Store.Count(), 1))
	setRoundLatency(p, "query", rounds)
	// The simulator is the system under test here: its memory is the
	// median of the century runs' peaks.
	p.metrics["peak_rss_mb"] = median(peaks)
	if tr != nil {
		k := min(stagePackets, acc.len())
		p.stages = &stageInput{src: acc.prefix(k), at: at[:k], horizon: at[k-1], sim: &first}
	}
	return p, nil
}

// bootStore replays endpointd's boot order for a store: open the WAL
// directory, build the store, enable rollups when asked, load the
// snapshot, replay the WAL.
func bootStore(walDir, snap string, shards int, rollups bool) (*cloud.Store, error) {
	db, err := tsdb.Open(tsdb.Options{Dir: walDir, Shards: shards, Sync: tsdb.SyncAlways})
	if err != nil {
		return nil, err
	}
	s := cloud.NewStoreWithDB(cloud.StaticKeys([]byte(fleetMaster)), db)
	if rollups {
		if err := s.EnableRollups(archiveRollups, archiveRetainRaw); err != nil {
			s.Close()
			return nil, err
		}
	}
	if err := s.LoadFile(snap); err != nil {
		s.Close()
		return nil, fmt.Errorf("loading %s: %w", snap, err)
	}
	if _, err := s.ReplayWAL(); err != nil {
		s.Close()
		return nil, fmt.Errorf("replaying %s: %w", walDir, err)
	}
	return s, nil
}

// rssMeter measures the peak resident memory the system under test adds
// to this process: the kernel's high-water mark is reset to the current
// footprint when measuring starts, and the peak is read relative to it.
type rssMeter struct {
	baseKB int64
	reset  bool
}

func startRSS() rssMeter {
	runtime.GC()
	debug.FreeOSMemory()
	m := rssMeter{baseKB: fieldKB("/proc/self/status", "VmRSS:")}
	m.reset = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
	return m
}

// peakMB is the growth of the peak resident set since start. Where the
// high-water mark cannot be reset, it is the process's whole peak.
func (m rssMeter) peakMB() float64 {
	hwm := fieldKB("/proc/self/status", "VmHWM:")
	if !m.reset {
		return float64(hwm) / 1024
	}
	return float64(hwm-m.baseKB) / 1024
}

// fieldKB reads one kB-valued field of a /proc status file; 0 when the
// file or field is gone.
func fieldKB(path, field string) int64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return n
		}
	}
	return 0
}
