package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/cloud"
	"centuryscale/internal/cluster"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/sim"
	"centuryscale/internal/telemetry"
	"centuryscale/internal/tsdb"
)

// The traced run's in-process stage replay: the workload's own packets,
// fed stage by stage through each layer's public functions with a span
// around every call, so each layer's cost on this workload is measured
// where the work happens.

const (
	// stagePackets caps the packets one replay feeds through each stage.
	stagePackets = 8192
	// syncSample is how many packets go through the one-fsync-per-packet
	// stages (tsdb.Append and Store.Ingest with SyncAlways).
	syncSample = 200
	// queryDevices is how many devices the query stage reads.
	queryDevices = 32
	// daemonSpan is the virtual time a daemon workload's stage sample is
	// spread over, so the rollup and query stages have history to fold
	// and window.
	daemonSpan = 28 * 24 * time.Hour
)

// stageInput is what a pass hands the stage replay.
type stageInput struct {
	// src is the sample in send order, with its virtual arrivals.
	src     *stream
	at      []time.Duration
	horizon time.Duration
	// clusterTraced is set when the pass's proxies already recorded the
	// cluster layer against the real daemons.
	clusterTraced bool
	// sim is the run whose accepted stream the sim stage re-admits.
	sim *simRun
	// stallMS, when positive, is the checkpoint stall the pass measured
	// itself; otherwise the replay measures one.
	stallMS float64
	// opFsyncs is the mean number of group commits one of the pass's own
	// frames needs, for the attribution; zero for bare packets.
	opFsyncs float64
}

// streamStages takes the daemon workloads' stage sample: the first
// stagePackets packets, spread evenly over daemonSpan.
func streamStages(src *stream, traced bool) *stageInput {
	if !traced {
		return nil
	}
	n := min(stagePackets, src.len())
	s := src.prefix(n)
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(int64(daemonSpan) / int64(n) * int64(i))
	}
	return &stageInput{src: s, at: at, horizon: daemonSpan, clusterTraced: true}
}

// attribution splits a workload's end-to-end operation latency into the
// medians of the stages on its blocking path.
type attribution struct {
	Operation         string       `json:"operation"`
	EndToEndNS        float64      `json:"end_to_end_median_ns"`
	Stages            []stageShare `json:"stages"`
	UnattributedNS    float64      `json:"unattributed_ns"`
	UnattributedShare float64      `json:"unattributed_share"`
}

type stageShare struct {
	Name     string  `json:"name"`
	Per      float64 `json:"runs_per_operation"`
	MedianNS float64 `json:"median_ns"`
}

// replayStages runs every stage and derives the per-layer metrics.
func replayStages(b *bench, tr *Tracer, p *pass) (map[string]float64, *attribution, error) {
	in := p.stages
	if in == nil {
		return nil, nil, fmt.Errorf("the pass left no stage input")
	}
	dir, err := b.dir("stages")
	if err != nil {
		return nil, nil, err
	}
	L := map[string]float64{}
	frames, frameAt := in.frames()

	// batch
	splitNS := nsSample(tr, "batch.split", len(frames), func(i int) {
		if _, _, err := batch.Split(frames[i], 0); err != nil {
			panic(err) // the frames were built by batch.AppendFrame
		}
	})
	L["batch.split_ns_per_frame"] = median(splitNS)

	// telemetry
	master := []byte(fleetMaster)
	keys := make(map[lpwan.EUI64]telemetry.Key)
	n := in.src.len()
	pkts := make([]telemetry.Packet, n)
	for i := range pkts {
		pkts[i], _ = telemetry.Parse(in.src.wire(i))
	}
	L["telemetry.derive_key_ns"] = median(nsSample(tr, "telemetry.derive_key", n, func(i int) {
		keys[pkts[i].Device] = telemetry.DeriveKey(master, pkts[i].Device)
	}))
	L["telemetry.verify_ns"] = median(nsSample(tr, "telemetry.verify", n, func(i int) {
		if _, err := telemetry.Verify(in.src.wire(i), keys[pkts[i].Device]); err != nil {
			panic(err) // sealed under these keys
		}
	}))
	verifiers := map[lpwan.EUI64]*telemetry.Verifier{}
	L["telemetry.verifier_ns"] = median(nsSample(tr, "telemetry.verifier", n, func(i int) {
		v := verifiers[pkts[i].Device]
		if v == nil {
			v, _ = telemetry.NewVerifier(keys[pkts[i].Device])
			verifiers[pkts[i].Device] = v
		}
		if _, err := v.Verify(in.src.wire(i)); err != nil {
			panic(err)
		}
	}))
	guard := telemetry.NewReplayGuard(16)
	L["telemetry.guard_ns"] = median(nsSample(tr, "telemetry.guard", n, func(i int) {
		if guard.Fresh(pkts[i]) == nil {
			_ = guard.Admit(pkts[i])
		}
	}))

	// tsdb
	if err := tsdbStages(tr, dir, in, pkts, frames, L); err != nil {
		return nil, nil, err
	}

	// cloud
	if err := cloudStages(tr, dir, in, frames, frameAt, L); err != nil {
		return nil, nil, err
	}

	// rollup and query
	if err := rollupStages(tr, dir, in, frames, frameAt, L); err != nil {
		return nil, nil, err
	}

	// cluster
	opName := "client.op"
	if !in.clusterTraced {
		opName = "cluster.op"
		if err := clusterStage(tr, dir, in, frames); err != nil {
			return nil, nil, err
		}
	}
	clusterLayer(tr, opName, L)

	// sim
	if in.sim == nil {
		return nil, nil, fmt.Errorf("the pass ran no simulator")
	}
	acc, at := acceptedStream(in.sim.out)
	_, admit := admitReplay(acc, at, p)
	tr.Add(Span{Name: "sim.admit", Start: tr.Now() - int64(admit), End: tr.Now()})
	L["sim.admit_s"] = admit.Seconds()
	L["sim.admit_share"] = admit.Seconds() / in.sim.took.Seconds()

	at2 := attribute(b.workload, p, L, in)
	L["trace.unattributed_share"] = at2.UnattributedShare
	return L, at2, nil
}

// frames packs the sample into full batch frames, each stamped with the
// arrival of its last packet.
func (in *stageInput) frames() ([][]byte, []time.Duration) {
	frames := in.src.frames(framePackets)
	at := make([]time.Duration, len(frames))
	for i := range frames {
		at[i] = in.at[min((i+1)*framePackets, in.src.len())-1]
	}
	return frames, at
}

// nsSample runs fn(i) for i < n, each call inside a span, and returns the
// call durations in nanoseconds.
func nsSample(tr *Tracer, name string, n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = float64(tr.Time(name, uint64(i)+1, 0, func() { fn(i) }))
	}
	return out
}

func openDB(dir string, durable bool) (*tsdb.DB, error) {
	opts := tsdb.Options{Shards: endpointShards, Sync: tsdb.SyncAlways}
	if durable {
		opts.Dir = dir
	}
	return tsdb.Open(opts)
}

func tsdbStages(tr *Tracer, dir string, in *stageInput, pkts []telemetry.Packet, frames [][]byte, L map[string]float64) error {
	points := make([]tsdb.Point, len(pkts))
	for i, p := range pkts {
		points[i] = tsdb.Point{Device: p.Device, At: in.at[i], Seq: p.Seq, Sensor: uint8(p.Sensor), Value: p.Value, Uptime: p.UptimeSeconds}
	}
	// Group commit: each frame's points grouped by shard, as the store
	// groups them, one AppendBatch per group.
	walDir := filepath.Join(dir, "tsdb-batch")
	db, err := openDB(walDir, true)
	if err != nil {
		return err
	}
	commits0 := db.GroupCommits()
	groups := make([][]tsdb.Point, endpointShards)
	var ferr error
	gc := nsSample(tr, "tsdb.group_commit", len(frames), func(f int) {
		for g := range groups {
			groups[g] = groups[g][:0]
		}
		for i := f * framePackets; i < min((f+1)*framePackets, len(points)); i++ {
			g := tsdb.ShardIndex(points[i].Device, endpointShards)
			groups[g] = append(groups[g], points[i])
		}
		for _, grp := range groups {
			if len(grp) > 0 {
				if err := db.AppendBatch(grp); err != nil && ferr == nil {
					ferr = err
				}
			}
		}
	})
	if ferr != nil {
		return ferr
	}
	L["tsdb.group_commit_ns_per_frame"] = median(gc)
	L["tsdb.fsyncs_per_frame"] = float64(db.GroupCommits()-commits0) / float64(len(frames))
	L["tsdb.wal_bytes_per_point"] = float64(db.Stats().WALBytes) / float64(len(points))
	if err := db.Close(); err != nil {
		return err
	}
	start := tr.Now()
	t0 := time.Now()
	db, err = openDB(walDir, true)
	if err != nil {
		return err
	}
	if _, err := db.Replay(func(tsdb.Point) bool { return true }); err != nil {
		return err
	}
	took := time.Since(t0)
	tr.Add(Span{Name: "tsdb.replay", Start: start, End: start + int64(took)})
	L["tsdb.replay_s"] = took.Seconds()
	if err := db.Close(); err != nil {
		return err
	}

	// One fsync per packet.
	db, err = openDB(filepath.Join(dir, "tsdb-sync"), true)
	if err != nil {
		return err
	}
	L["tsdb.append_sync_ns"] = median(nsSample(tr, "tsdb.append_sync", min(syncSample, len(points)), func(i int) {
		if err := db.Append(points[i]); err != nil && ferr == nil {
			ferr = err
		}
	}))
	if err := db.Close(); err != nil {
		return err
	}

	// Memtable only.
	mem, err := openDB("", false)
	if err != nil {
		return err
	}
	L["tsdb.memtable_ns_per_packet"] = median(nsSample(tr, "tsdb.memtable", len(points), func(i int) {
		if err := mem.Append(points[i]); err != nil && ferr == nil {
			ferr = err
		}
	}))
	return ferr
}

func newWALStore(dir string) (*cloud.Store, error) {
	db, err := openDB(dir, true)
	if err != nil {
		return nil, err
	}
	return cloud.NewStoreWithDB(cloud.StaticKeys([]byte(fleetMaster)), db), nil
}

func cloudStages(tr *Tracer, dir string, in *stageInput, frames [][]byte, frameAt []time.Duration, L map[string]float64) error {
	var ferr error
	note := func(err error) {
		if err != nil && ferr == nil {
			ferr = err
		}
	}
	batchDir := filepath.Join(dir, "cloud-batch")
	store, err := newWALStore(batchDir)
	if err != nil {
		return err
	}
	ib := nsSample(tr, "cloud.ingest_batch", len(frames), func(f int) {
		res, err := store.IngestBatch(frameAt[f], frames[f])
		note(err)
		if err == nil && res.Accepted != res.Total {
			note(fmt.Errorf("frame %d: %d of %d packets accepted", f, res.Accepted, res.Total))
		}
	})
	L["cloud.ingest_batch_ns_per_frame"] = median(ib)

	// The HTTP layer: the same frames through Server.ServeHTTP on a
	// twin store; its cost is the difference of the medians.
	twin, err := newWALStore(filepath.Join(dir, "cloud-http"))
	if err != nil {
		return err
	}
	srv := cloud.NewServer(twin, time.Now())
	srv.SetClusterSecret(clusterSecret)
	serve := nsSample(tr, "cloud.serve_http", len(frames), func(f int) {
		req := httptest.NewRequest(http.MethodPost, "/ingest/batch", bytes.NewReader(frames[f]))
		req.Header.Set(cloud.ClusterSecretHeader, clusterSecret)
		req.Header.Set(cloud.ClusterArrivalHeader, strconv.FormatInt(int64(frameAt[f]), 10))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusAccepted {
			note(fmt.Errorf("ServeHTTP frame %d: status %d", f, w.Code))
		}
	})
	L["cloud.http_ns_per_op"] = median(serve) - median(ib)
	note(twin.Close())

	single, err := newWALStore(filepath.Join(dir, "cloud-single"))
	if err != nil {
		return err
	}
	L["cloud.ingest_ns_per_packet"] = median(nsSample(tr, "cloud.ingest", min(syncSample, in.src.len()), func(i int) {
		note(single.Ingest(in.at[i], in.src.wire(i)))
	}))
	note(single.Close())

	// Snapshot write and read, and the WAL replay a boot does.
	snap := filepath.Join(dir, "cloud-snapshot.json")
	L["cloud.snapshot_write_s"] = tr.Time("cloud.snapshot_write", 0, 0, func() { note(store.SaveFile(snap)) }).Seconds()
	fi, err := os.Stat(snap)
	if err != nil {
		return err
	}
	L["cloud.snapshot_bytes_per_point"] = float64(fi.Size()) / float64(in.src.len())
	note(store.Close())
	fresh := cloud.NewStore(cloud.StaticKeys([]byte(fleetMaster)))
	L["cloud.snapshot_read_s"] = tr.Time("cloud.snapshot_read", 0, 0, func() { note(fresh.LoadFile(snap)) }).Seconds()
	replayed, err := newWALStore(batchDir)
	if err != nil {
		return err
	}
	L["cloud.replay_wal_s"] = tr.Time("cloud.replay_wal", 0, 0, func() {
		_, err := replayed.ReplayWAL()
		note(err)
	}).Seconds()
	if replayed.Count() != uint64(in.src.len()) {
		note(fmt.Errorf("WAL replay restored %d of %d packets", replayed.Count(), in.src.len()))
	}
	note(replayed.Close())
	return ferr
}

// rollupStages loads the sample into a rollup-enabled store, folds it,
// checkpoints it under a trickle, and queries it.
func rollupStages(tr *Tracer, dir string, in *stageInput, frames [][]byte, frameAt []time.Duration, L map[string]float64) error {
	store, err := newWALStore(filepath.Join(dir, "rollup"))
	if err != nil {
		return err
	}
	defer store.Close()
	retain := max(time.Hour, in.horizon/8)
	if err := store.EnableRollups(archiveRollups, retain); err != nil {
		return err
	}
	// The last frame is held back as the trickle.
	for f := 0; f < len(frames)-1; f++ {
		if _, err := store.IngestBatch(frameAt[f], frames[f]); err != nil {
			return err
		}
	}
	L["rollup.fold_s"] = tr.Time("rollup.fold", 0, 0, func() { store.FoldRollups(store.HighWater()) }).Seconds()

	L["cloud.checkpoint_stall_ms"] = in.stallMS
	if in.stallMS == 0 {
		stall, err := checkpointStall(tr, store, filepath.Join(dir, "rollup-snapshot.json"), frames[len(frames)-1], frameAt[len(frames)-1])
		if err != nil {
			return err
		}
		L["cloud.checkpoint_stall_ms"] = stall
	}

	eng := store.QueryEngine()
	devs := store.Devices()
	if r := store.Rollups(); r != nil {
		devs = append(devs, r.Devices()...)
	}
	seen := map[lpwan.EUI64]bool{}
	var qdevs []lpwan.EUI64
	for _, d := range devs {
		if !seen[d] && len(qdevs) < queryDevices {
			seen[d] = true
			qdevs = append(qdevs, d)
		}
	}
	to := (in.horizon/sim.Week + 1) * sim.Week
	var perWindow, items, uptime []float64
	for _, d := range qdevs {
		var windows int
		var hits int
		took := tr.Time("query.windows", 0, 0, func() {
			it, err := eng.Windows(d, 0, to, sim.Week)
			if err != nil {
				panic(err) // week-aligned from 0, so valid at any watermark
			}
			for it.Next() {
				windows++
			}
			t := it.Tiers()
			hits = t.Daily + t.Hourly + t.Raw
			it.Close()
		})
		perWindow = append(perWindow, float64(took)/float64(max(windows, 1)))
		items = append(items, float64(hits)/float64(max(windows, 1)))
		uptime = append(uptime, ms(tr.Time("query.uptime", 0, 0, func() { eng.WeeklyUptime(d, in.horizon) })))
	}
	L["query.window_ns"] = median(perWindow)
	L["query.items_per_window"] = median(items)
	L["query.uptime_ms"] = median(uptime)
	var gaps []float64
	for i := 0; i < 5; i++ {
		gaps = append(gaps, ms(tr.Time("query.topgaps", 0, 0, func() { eng.TopGaps(10, in.horizon) })))
	}
	L["query.topgaps_ms"] = median(gaps)
	return nil
}

// checkpointStall runs CheckpointAt while a trickle re-sends single
// packets of frame (each one a one-packet frame) and returns the longest
// trickle ingest that overlapped the checkpoint, in milliseconds.
func checkpointStall(tr *Tracer, store *cloud.Store, snap string, frame []byte, at time.Duration) (float64, error) {
	payload, n, err := batch.Split(frame, 0)
	if err != nil {
		return 0, err
	}
	stop := make(chan struct{})
	type call struct{ start, end time.Time }
	done := make(chan []call, 1)
	go func() {
		var calls []call
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- calls
				return
			default:
			}
			f, _ := batch.AppendFrame(nil, batch.Packet(payload, i%n))
			t0 := time.Now()
			_, _ = store.IngestBatch(at, f) // repeats after the first pass are duplicates; the call is what is timed
			calls = append(calls, call{t0, time.Now()})
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	cpStart := time.Now()
	var cerr error
	tr.Time("cloud.checkpoint", 0, 0, func() { cerr = store.CheckpointAt(snap, store.HighWater()) })
	cpEnd := time.Now()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	calls := <-done
	var stall time.Duration
	for _, c := range calls {
		if c.start.Before(cpEnd) && c.end.After(cpStart) {
			stall = max(stall, c.end.Sub(c.start))
		}
	}
	return ms(stall), cerr
}

// clusterStage replays the sample's frames through an in-process
// coordinator over three in-process WAL-backed endpoints, with a
// forwarding proxy in front of each, for workloads that run no daemons.
func clusterStage(tr *Tracer, dir string, in *stageInput, frames [][]byte) error {
	var peers []string
	var cleanups []func()
	defer func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}()
	var proxies []*proxy
	for i := 0; i < clusterNodes; i++ {
		store, err := newWALStore(filepath.Join(dir, fmt.Sprintf("cluster-node%d", i)))
		if err != nil {
			return err
		}
		cleanups = append(cleanups, func() { store.Close() })
		srv := cloud.NewServer(store, time.Now())
		srv.SetClusterSecret(clusterSecret)
		hs := httptest.NewServer(srv)
		cleanups = append(cleanups, hs.Close)
		px, err := startProxy(tr, i, hs.URL, in.src)
		if err != nil {
			return err
		}
		cleanups = append(cleanups, px.close)
		proxies = append(proxies, px)
		peers = append(peers, px.url)
	}
	coord, err := cluster.New(cluster.Config{Peers: peers, Replicas: replicas, WriteQuorum: writeQuorum, Secret: clusterSecret})
	if err != nil {
		return err
	}
	ctx := context.Background()
	defer coord.Close(ctx)
	var ferr error
	for f := range frames {
		tr.Time("cluster.op", uint64(f)+1, 0, func() {
			if err := coord.IngestBatch(ctx, frames[f]); err != nil && ferr == nil {
				ferr = err
			}
		})
	}
	for _, px := range proxies {
		px.flush("cluster.op", func(pos int) uint64 { return uint64(pos/framePackets) + 1 })
	}
	return ferr
}

// clusterLayer derives the cluster metrics from client operations named
// opName and the replica spans the proxies recorded for them.
func clusterLayer(tr *Tracer, opName string, L map[string]float64) {
	ops := tr.Named(opName)
	reps := tr.Named("cluster.replica")
	byOp := map[uint64][]Span{}
	for _, r := range reps {
		if r.Op != 0 {
			byOp[r.Op] = append(byOp[r.Op], r)
		}
	}
	var self, wait []float64
	for _, o := range ops {
		rs := byOp[o.Op]
		if len(rs) == 0 {
			continue
		}
		self = append(self, ms(selfTime(o, rs)))
		first, last := rs[0].End, rs[0].End
		for _, r := range rs {
			first, last = min(first, r.End), max(last, r.End)
		}
		wait = append(wait, ms(time.Duration(last-first)))
	}
	rtt := make([]float64, len(reps))
	for i, r := range reps {
		rtt[i] = ms(r.dur())
	}
	L["cluster.router_self_ms"] = median(self)
	L["cluster.quorum_wait_ms"] = median(wait)
	L["cluster.replica_rtt_p50_ms"] = median(rtt)
	L["cluster.replica_rtt_p99_ms"] = p99(rtt)
	L["cluster.replica_requests_per_op"] = float64(len(reps)) / float64(max(len(ops), 1))
}

// attribute splits the traced pass's operation latency into the stages
// on its blocking path; whatever they do not cover is unattributed.
func attribute(workload string, p *pass, L map[string]float64, in *stageInput) *attribution {
	nsOf := func(name string) float64 {
		v := L[name]
		switch {
		case len(name) > 3 && name[len(name)-3:] == "_ms":
			return v * 1e6
		case len(name) > 2 && name[len(name)-2:] == "_s":
			return v * 1e9
		}
		return v
	}
	type part struct {
		name string
		per  float64
	}
	// Packets per replica request: the share of a frame one owner gets.
	perReplica := float64(framePackets) * replicas / clusterNodes
	var parts []part
	switch workload {
	case "backlog_drain":
		parts = []part{
			{"cluster.router_self_ms", 1},
			{"cluster.quorum_wait_ms", 1},
			{"cloud.http_ns_per_op", 1},
			{"cloud.ingest_batch_ns_per_frame", perReplica / framePackets},
		}
	case "steady_bare":
		parts = []part{
			{"generator_lateness", 1},
			{"cluster.router_self_ms", 1},
			{"cluster.quorum_wait_ms", 1},
			{"cloud.http_ns_per_op", 1},
			{"cloud.ingest_ns_per_packet", 1},
		}
	case "sim_century":
		parts = []part{
			{"telemetry.derive_key_ns", 1},
			{"telemetry.verify_ns", 1},
			{"telemetry.guard_ns", 1},
			{"tsdb.memtable_ns_per_packet", 1},
		}
	case "archive":
		parts = []part{
			{"batch.split_ns_per_frame", float64(burstPackets) / framePackets},
			{"telemetry.verifier_ns", burstPackets},
			{"telemetry.guard_ns", burstPackets},
			{"tsdb.group_commit_ns_per_frame", in.opFsyncs / max(L["tsdb.fsyncs_per_frame"], 1)},
		}
	}
	e2e := median(durationsNS(p.e2e))
	at := &attribution{Operation: p.e2eName + " (traced pass)", EndToEndNS: e2e}
	sum := 0.0
	for _, pt := range parts {
		var v float64
		if pt.name == "generator_lateness" {
			v = p.details["generator_lateness_p50_ms"].(float64) * 1e6
		} else {
			v = nsOf(pt.name)
		}
		at.Stages = append(at.Stages, stageShare{Name: pt.name, Per: pt.per, MedianNS: v * pt.per})
		sum += v * pt.per
	}
	at.UnattributedNS = e2e - sum
	at.UnattributedShare = at.UnattributedNS / e2e
	return at
}
