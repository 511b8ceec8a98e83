package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/cloud"
	"centuryscale/internal/rollup"
	"centuryscale/internal/telemetry"
	"centuryscale/internal/tsdb"
)

// The archive: a WAL-backed store with rollups, preloaded to 250,000
// points — 100 devices reporting every eight hours for 2,500 reports
// (about 2.3 years of virtual time) — so both rollup tiers and a raw
// tail are present, plus a WAL tail written after the last checkpoint.
// At 10^6 points one checkpoint-restart-query cycle took over twenty
// seconds on the reference host and its timings spread by a third from
// run to run; a quarter of that keeps every cycle's costs in proportion
// and the run steady.
const (
	archiveDevices         = 100
	archivePointsPerDevice = 2500
	archiveInterval        = 8 * time.Hour
	archiveRetainRaw       = 30 * 24 * time.Hour
	// archiveShards is the archive's storage shard count. A checkpoint
	// unlinks every shard's sealed WAL segments one by one, and on the
	// reference host's shared ext4 (mounted with discard) one unlink of
	// a small fsynced file takes 0.1-0.25s. With four shards a
	// checkpoint took 3-7s, most of it blocked in those unlinks, and its
	// median spread by a quarter from run to run; with one it takes
	// 0.3-0.8s, against about 0.25s to fold, encode, write and fsync the
	// same snapshot alone. One shard keeps the store's own work the
	// larger part of what checkpoint_s measures.
	archiveShards = 1
	// archiveWALSteps is the report rounds written after the preload's
	// checkpoint, so a boot replays a WAL tail over the snapshot.
	archiveWALSteps = 36
	// The trickle: four packets per frame, a frame due every 5ms (800
	// packets/s), an open loop that keeps landing while the checkpoint
	// runs.
	tricklePackets = 4
	trickleEvery   = 5 * time.Millisecond
	// trickleLead is how long the trickle runs before each checkpoint
	// starts, and trickleTail how long it continues after it ends: about
	// 180 frames a cycle land outside the checkpoint, nearly two
	// thousand in a run.
	trickleLead = 500 * time.Millisecond
	trickleTail = 400 * time.Millisecond
	// trickleRounds is the report rounds sealed for one cycle's trickle:
	// 2,000 frames, ten seconds of it. A checkpoint that outlasts it runs
	// its rest without the trickle; the run records that it did.
	trickleRounds = 80
	// The burst: after each checkpoint, burstRounds report rounds are
	// sent closed loop by one sender, in frames of burstPackets (two a
	// round). ingest_pps and the frame latencies come from it, and the
	// next restart replays it from the WAL. Over a run the bursts add
	// about 50,000 points to the archive.
	burstRounds  = 50
	burstPackets = 50
	// archiveCycles is the least number of checkpoint-burst-restart-query
	// cycles a run makes; checkpoint_s, boot_s and ingest_pps are medians
	// over cycles. A traced run makes two passes, each of tracedCycles,
	// so that it ends within the same few minutes as an untraced one.
	archiveCycles = 10
	tracedCycles  = 4
	// spotChecks is the number of windows per cycle compared with a raw
	// scan of the generated points.
	spotChecks = 8
)

var archiveRollups = rollup.Config{Hourly: time.Hour, Daily: 24 * time.Hour}

// archiveAt is the arrival of report round i. A point's sequence number
// (i+1) and value follow from its device and round alone, which is what
// the raw-scan oracle relies on.
func archiveAt(i int) time.Duration { return time.Duration(i) * archiveInterval }

// roundFrames seals report rounds [from, to) into frames of per packets,
// each frame stamped with the arrival of its last packet.
func roundFrames(keys []telemetry.Key, from, to, per int) ([][]byte, []time.Duration) {
	var frames [][]byte
	var ats []time.Duration
	var b batch.Builder
	b.MaxPackets = per
	var last time.Duration
	for i := from; i < to; i++ {
		for d := 0; d < archiveDevices; d++ {
			seq := uint32(i + 1)
			wire, err := telemetry.Packet{
				Device: deviceID(d), Seq: seq, Sensor: telemetry.SensorStrain,
				Value: valueOf(d, seq), UptimeSeconds: seq * 28800,
			}.Seal(keys[d])
			if err != nil {
				panic(fmt.Sprintf("perfbench: sealing: %v", err)) // 32-byte keys, finite values
			}
			_ = b.Add(wire) // cannot fail: the frame is taken before it fills
			last = archiveAt(i)
			if b.Count() == per {
				frames, ats = append(frames, b.Take()), append(ats, last)
			}
		}
	}
	if b.Count() > 0 {
		frames, ats = append(frames, b.Take()), append(ats, last)
	}
	return frames, ats
}

func archiveKeys() []telemetry.Key {
	keys := make([]telemetry.Key, archiveDevices)
	for d := range keys {
		keys[d] = telemetry.DeriveKey([]byte(fleetMaster), deviceID(d))
	}
	return keys
}

// buildArchive writes the preloaded archive into dir: a snapshot holding
// the folded tiers and the raw tail, and a WAL tail beyond it. The
// points stream into the store round by round; none are kept.
func buildArchive(dir string) (walDir, snap string, err error) {
	walDir, snap = filepath.Join(dir, "tsdb"), filepath.Join(dir, "snapshot.json")
	db, err := tsdb.Open(tsdb.Options{Shards: archiveShards})
	if err != nil {
		return "", "", err
	}
	mem := cloud.NewStoreWithDB(cloud.StaticKeys([]byte(fleetMaster)), db)
	if err := mem.EnableRollups(archiveRollups, archiveRetainRaw); err != nil {
		return "", "", err
	}
	keys := archiveKeys()
	const chunk = 500
	for lo := 0; lo < archivePointsPerDevice; lo += chunk {
		frames, ats := roundFrames(keys, lo, min(lo+chunk, archivePointsPerDevice), archiveDevices)
		for i, f := range frames {
			if _, err := mem.IngestBatch(ats[i], f); err != nil {
				return "", "", err
			}
		}
	}
	if err := mem.CheckpointAt(snap, mem.HighWater()); err != nil {
		return "", "", err
	}
	s, err := bootStore(walDir, snap, archiveShards, true)
	if err != nil {
		return "", "", err
	}
	defer s.Close()
	frames, ats := roundFrames(keys, archivePointsPerDevice, archivePointsPerDevice+archiveWALSteps, archiveDevices)
	for i, f := range frames {
		if _, err := s.IngestBatch(ats[i], f); err != nil {
			return "", "", err
		}
	}
	return walDir, snap, nil
}

// cycleInput is one archive cycle's pre-sealed traffic: the trickle's
// frames and the burst's, each with its arrival stamps. Cycle c uses
// report rounds after those of cycle c-1, so every packet is fresh.
type cycleInput struct {
	trickle, burst     [][]byte
	trickleAt, burstAt []time.Duration
}

func archiveCycleInputs(cycles int) []cycleInput {
	keys := archiveKeys()
	out := make([]cycleInput, cycles)
	for c := range out {
		base := archivePointsPerDevice + archiveWALSteps + c*(trickleRounds+burstRounds)
		in := &out[c]
		in.trickle, in.trickleAt = roundFrames(keys, base, base+trickleRounds, tricklePackets)
		in.burst, in.burstAt = roundFrames(keys, base+trickleRounds, base+trickleRounds+burstRounds, burstPackets)
	}
	return out
}

// trickleRecord is one trickle frame's fate.
type trickleRecord struct {
	due, start, end time.Time
	ok              bool
}

// runTrickle sends frames, each due every trickleEvery after begin, until
// stop is closed or the frames run out.
func runTrickle(s *cloud.Store, frames [][]byte, ats []time.Duration, begin time.Time, stop <-chan struct{}, tr *Tracer) []trickleRecord {
	var recs []trickleRecord
	for k := range frames {
		select {
		case <-stop:
			return recs
		default:
		}
		due := begin.Add(time.Duration(k) * trickleEvery)
		waitUntil(due)
		start := tr.Now()
		t0 := time.Now()
		res, err := s.IngestBatch(ats[k], frames[k])
		end := time.Now()
		tr.Add(Span{Name: "client.trickle", Op: uint64(k) + 1, Start: start, End: start + int64(end.Sub(t0))})
		recs = append(recs, trickleRecord{due: due, start: t0, end: end, ok: err == nil && res.Accepted == res.Total})
	}
	return recs
}

// runBurst sends frames closed loop, one after another, and returns each
// frame's latency, the time the burst took and the packets acknowledged.
// A refused frame counts as failed, with requestTimeout as its latency.
func runBurst(s *cloud.Store, frames [][]byte, ats []time.Duration, tr *Tracer, p *pass) ([]time.Duration, time.Duration, int) {
	lat := make([]time.Duration, len(frames))
	acked := 0
	begin := time.Now()
	for i, f := range frames {
		start := tr.Now()
		t0 := time.Now()
		res, err := s.IngestBatch(ats[i], f)
		lat[i] = time.Since(t0)
		tr.Add(Span{Name: "client.op", Op: uint64(i) + 1, Start: start, End: start + int64(lat[i])})
		p.attempted++
		if err != nil || res.Accepted != res.Total {
			p.failed++
			lat[i] = requestTimeout
		}
		acked += res.Accepted
	}
	return lat, time.Since(begin), acked
}

// syncDirs fsyncs each directory, which makes the renames and deletions
// in it durable.
func syncDirs(dirs ...string) error {
	for _, d := range dirs {
		f, err := os.Open(d)
		if err != nil {
			return err
		}
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("syncing %s: %w", d, err)
		}
	}
	return nil
}

func runArchive(b *bench, tr *Tracer) (*pass, error) {
	p := newPass()
	dir, err := b.dir("archive")
	if err != nil {
		return nil, err
	}
	walDir, snap, err := buildArchive(dir)
	if err != nil {
		return nil, fmt.Errorf("building the archive: %w", err)
	}
	// A cycle takes over a second, so a run never needs inputs for more
	// than archiveCycles or --seconds cycles, whichever is more.
	cin := cached("archive-cycles", func() []cycleInput {
		return archiveCycleInputs(max(archiveCycles, b.seconds))
	})
	// Start the set-up from a settled disk, and measure the store's
	// memory from before it boots: the inputs above are not counted.
	syscall.Sync()
	rss := startRSS()

	// Set-up: boot the archive as endpointd does, setupRepeats times.
	var boots []float64
	var store *cloud.Store
	for i := 0; i < setupRepeats; i++ {
		if store != nil {
			store.Close()
			runtime.GC() // a restarted endpointd starts with an empty heap
		}
		start := tr.Now()
		t0 := time.Now()
		if store, err = bootStore(walDir, snap, archiveShards, true); err != nil {
			return nil, err
		}
		took := time.Since(t0)
		tr.Add(Span{Name: "phase.setup", Start: start, End: start + int64(took)})
		boots = append(boots, took.Seconds())
	}
	p.metrics["setup_s"] = median(boots)
	defer func() { store.Close() }()

	devs := store.Devices()
	mix := queryMix(b.seed+13, devs, archiveAt(archivePointsPerDevice), mixSize)
	r := rand.New(rand.NewSource(b.seed + 17))

	var (
		exhausted                   int
		cps, bootTimes, stalls, pps []float64
		frameLat                    []time.Duration
		frameRounds, packetRounds   [][]time.Duration
		queryRounds                 [][]time.Duration
	)
	shards, err := filepath.Glob(filepath.Join(walDir, "shard-*"))
	if err != nil {
		return nil, err
	}
	storeDirs := append([]string{dir}, shards...)
	cycles := archiveCycles
	if b.trace {
		cycles = tracedCycles
	}
	deadline := time.Now().Add(time.Duration(b.seconds) * time.Second)
	for cycle := 0; cycle < cycles || (cycle < len(cin) && time.Now().Before(deadline)); cycle++ {
		in := cin[cycle]
		// Checkpoint while the trickle lands.
		stop := make(chan struct{})
		done := make(chan []trickleRecord, 1)
		begin := time.Now()
		go func() { done <- runTrickle(store, in.trickle, in.trickleAt, begin, stop, tr) }()
		time.Sleep(trickleLead)
		// Each checkpoint writes a new snapshot file, and the previous one
		// is removed once the store has restarted from the new one, off
		// the clock. Replacing a snapshot in place would also time the
		// file system freeing the old one, which on a file system that
		// discards freed blocks synchronously takes seconds per hundred
		// megabytes and measures the disk, not the store.
		prev := snap
		snap = filepath.Join(dir, fmt.Sprintf("snapshot-%d.json", cycle+1))
		start := tr.Now()
		cpStart := time.Now()
		// The checkpoint is durable once its snapshot's rename and the WAL
		// segments it deleted are: the directories holding them are
		// synced on the clock.
		err := store.CheckpointAt(snap, store.HighWater())
		if err == nil {
			err = syncDirs(storeDirs...)
		}
		cpEnd := time.Now()
		if err != nil {
			close(stop)
			<-done
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		tr.Add(Span{Name: "phase.checkpoint", Start: start, End: start + int64(cpEnd.Sub(cpStart))})
		cps = append(cps, cpEnd.Sub(cpStart).Seconds())
		time.Sleep(trickleTail)
		close(stop)
		recs := <-done
		if len(recs) == len(in.trickle) {
			exhausted++
			b.logf("cycle %d: the trickle ran out of pre-sealed frames", cycle)
		}
		// Frames due or in flight while the checkpoint ran, and those the
		// trickle then sent late while catching up, measure the stall it
		// causes; the rest measure the open loop's packet latency. The
		// stall is a per-layer figure: on the reference host the file
		// system's flush timing dominates it, too unsteady to bound.
		var stall time.Duration
		var packetLat []time.Duration
		catchingUp := false
		for _, rec := range recs {
			p.attempted++
			pl := rec.end.Sub(rec.due)
			if !rec.ok {
				p.failed++
				pl = requestTimeout
			}
			overlaps := rec.due.Before(cpEnd) && rec.end.After(cpStart)
			if overlaps {
				catchingUp = true
			} else if catchingUp && rec.start.Sub(rec.due) < trickleEvery {
				catchingUp = false
			}
			if overlaps || catchingUp {
				stall = max(stall, pl)
				continue
			}
			packetLat = append(packetLat, pl)
		}
		stalls = append(stalls, ms(stall))
		packetRounds = append(packetRounds, packetLat)

		// The burst, closed loop, into the WAL the restart replays.
		lat, took, acked := runBurst(store, in.burst, in.burstAt, tr, p)
		frameLat = append(frameLat, lat...)
		frameRounds = append(frameRounds, lat)
		pps = append(pps, float64(acked)/took.Seconds())

		// Query, restart, query again: the answers must not change.
		sv, err := serveStore(store)
		if err != nil {
			return nil, err
		}
		latA, before := runMix(tr, sv.url, mix, p)
		sv.close()
		store.Close()
		runtime.GC() // a restarted endpointd starts with an empty heap
		start = tr.Now()
		t0 := time.Now()
		if store, err = bootStore(walDir, snap, archiveShards, true); err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		took = time.Since(t0)
		tr.Add(Span{Name: "phase.restart", Start: start, End: start + int64(took)})
		bootTimes = append(bootTimes, took.Seconds())
		if sv, err = serveStore(store); err != nil {
			return nil, err
		}
		latB, after := runMix(tr, sv.url, mix, p)
		compareAnswers(mix, before, after, p)
		spotCheck(sv.url, r, p)
		sv.close()
		if err := os.Remove(prev); err != nil {
			return nil, err
		}
		// Settle the disk before the next cycle: commit the removal now,
		// off the clock.
		syscall.Sync()
		queryRounds = append(queryRounds, latA, latB)
	}
	// The peak over set-up and every cycle, above the footprint before
	// the first boot: the store's own memory, not the sealed inputs.
	p.metrics["peak_rss_mb"] = rss.peakMB()

	p.metrics["checkpoint_s"] = median(cps)
	p.metrics["boot_s"] = median(bootTimes)
	p.metrics["ingest_pps"] = median(pps)
	// One cycle is one round: a cycle slowed by something else on the
	// host moves its own p99, not the median over cycles.
	setRoundLatency(p, "frame_ack", frameRounds)
	setRoundLatency(p, "packet_ack", packetRounds)
	setRoundLatency(p, "query", queryRounds)
	p.details["cycles"] = len(cps)
	p.details["checkpoint_stall_ms"] = stalls
	p.details["trickle_exhausted_cycles"] = exhausted
	p.details["burst_pps"] = pps
	p.e2eName, p.e2e = "frame_ack", frameLat
	disk, err := dirSize(dir, func(string) bool { return true })
	if err != nil {
		return nil, err
	}
	p.metrics["disk_bytes_per_point"] = float64(disk) / float64(max(store.Count(), 1))
	p.details["stored_points"] = store.Count()
	h, d := store.Rollups().Buckets()
	p.details["buckets_hourly"], p.details["buckets_daily"] = h, d
	p.details["checkpoint_samples_s"] = cps
	p.details["boot_samples_s"] = bootTimes

	if tr != nil {
		p.stages = archiveStages()
		p.stages.stallMS = median(stalls)
		p.stages.opFsyncs = meanShards(cin[0].burst)
	}
	return p, simPhase(b, tr, p)
}

// spotCheck compares spotChecks weekly windows inside the preloaded
// range with the same aggregates computed from the generated points.
func spotCheck(base string, r *rand.Rand, p *pass) {
	weeks := int(archiveAt(archivePointsPerDevice) / (7 * 24 * time.Hour))
	c := &http.Client{Timeout: requestTimeout}
	defer c.CloseIdleConnections()
	for k := 0; k < spotChecks; k++ {
		d := r.Intn(archiveDevices)
		w := r.Intn(weeks - 4)
		from := time.Duration(w) * 7 * 24 * time.Hour
		to := from + 4*7*24*time.Hour
		url := fmt.Sprintf("%s/query?device=%s&from=%d&to=%d&step=%d", base, deviceID(d),
			int64(from/time.Second), int64(to/time.Second), int64(7*24*time.Hour/time.Second))
		body, status, err := fetch(c, url)
		if err != nil || status != http.StatusOK {
			p.fail("spot check %s: status %d, %v", url, status, err)
			continue
		}
		var got struct {
			Windows []struct {
				Start float64 `json:"start_seconds"`
				Count uint64  `json:"count"`
				Sum   float64 `json:"sum"`
				Min   float32 `json:"min"`
				Max   float32 `json:"max"`
			} `json:"windows"`
		}
		if err := json.Unmarshal(body, &got); err != nil || len(got.Windows) != 4 {
			p.fail("spot check %s: %d windows, %v", url, len(got.Windows), err)
			continue
		}
		for wi, win := range got.Windows {
			ws := from + time.Duration(wi)*7*24*time.Hour
			var cnt uint64
			var sum float64
			var lo, hi float32
			for i := 0; i < archivePointsPerDevice; i++ {
				if at := archiveAt(i); at >= ws && at < ws+7*24*time.Hour {
					v := valueOf(d, uint32(i+1))
					if cnt == 0 || v < lo {
						lo = v
					}
					if cnt == 0 || v > hi {
						hi = v
					}
					cnt++
					sum += float64(v)
				}
			}
			if win.Count != cnt || win.Sum != sum || win.Min != lo || win.Max != hi {
				p.fail("spot check device %d week at %v: got count=%d sum=%v min=%v max=%v, raw scan count=%d sum=%v min=%v max=%v",
					d, ws, win.Count, win.Sum, win.Min, win.Max, cnt, sum, lo, hi)
			}
		}
	}
}

// archiveStages is the stage replay's input on the archive: every point
// of the first devices, across the whole preloaded span, in arrival
// order.
func archiveStages() *stageInput {
	devs := max(1, stagePackets/archivePointsPerDevice)
	keys := archiveKeys()
	s := &stream{}
	var at []time.Duration
	for i := 0; i < archivePointsPerDevice; i++ {
		for d := 0; d < devs; d++ {
			s.dev = append(s.dev, int32(d))
			s.seq = append(s.seq, uint32(i+1))
			at = append(at, archiveAt(i))
		}
	}
	s.buf = make([]byte, s.len()*telemetry.PacketSize)
	for i := 0; i < s.len(); i++ {
		d, seq := int(s.dev[i]), s.seq[i]
		wire, err := telemetry.Packet{Device: deviceID(d), Seq: seq, Sensor: telemetry.SensorStrain,
			Value: valueOf(d, seq), UptimeSeconds: seq * 28800}.Seal(keys[d])
		if err != nil {
			panic(fmt.Sprintf("perfbench: sealing: %v", err))
		}
		copy(s.wire(i), wire)
	}
	return &stageInput{src: s, at: at, horizon: archiveAt(archivePointsPerDevice)}
}

// meanShards is the mean number of archive storage shards a frame's
// packets land on: the group commits one frame costs.
func meanShards(frames [][]byte) float64 {
	total := 0
	for _, f := range frames {
		payload, n, err := batch.Split(f, 0)
		if err != nil {
			continue
		}
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			p, _ := telemetry.Parse(batch.Packet(payload, i))
			seen[tsdb.ShardIndex(p.Device, archiveShards)] = true
		}
		total += len(seen)
	}
	return float64(total) / float64(max(len(frames), 1))
}
