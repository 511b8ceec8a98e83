package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"centuryscale/internal/batch"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/telemetry"
)

// The generated fleet. Every input the benchmark sends is built and
// sealed from the run's seed before any timing starts; the system under
// test only ever sees the sealed bytes.

// fleetMaster is the fleet secret the endpoints derive device keys from.
const fleetMaster = "perfbench-fleet-master"

// deviceBase tags benchmark device addresses so they read as such in
// logs; the fleet index sits in the low 32 bits.
const deviceBase = 0x0200000000000000

func deviceID(i int) lpwan.EUI64 { return lpwan.EUIFromUint64(deviceBase | uint64(i)) }

// deviceIndex recovers the low 32 bits of an address: the fleet index
// for addresses built by deviceID.
func deviceIndex(dev lpwan.EUI64) int { return int(uint32(dev.Uint64())) }

// valueOf is the reading a device reports at a sequence number. Values
// are small multiples of 1/8, so they are exact in float32 and their sums
// are exact in float64: read-back checks compare them bit for bit.
func valueOf(dev int, seq uint32) float32 {
	return float32((uint64(dev)*7919+uint64(seq))%10007) / 8
}

// packetKey identifies a packet by device and sequence number.
func packetKey(dev int, seq uint32) uint64 { return uint64(dev)<<32 | uint64(seq) }

// wireKey reads the packet key straight from sealed wire bytes.
func wireKey(wire []byte) uint64 {
	return uint64(uint32(binary.BigEndian.Uint64(wire[0:8])))<<32 | uint64(binary.BigEndian.Uint32(wire[8:12]))
}

// stream is a sequence of sealed packets in send order. With per > 0 the
// buffer is laid out as consecutive batch frames of per packets, so the
// frames a sender posts and the packets an oracle checks share memory;
// otherwise the wires are packed back to back.
type stream struct {
	dev   []int32
	seq   []uint32
	buf   []byte
	per   int
	index map[uint64]int32 // packet key -> position; see lookup
}

func (s *stream) len() int { return len(s.dev) }

func (s *stream) wire(i int) []byte {
	off := i * telemetry.PacketSize
	if s.per > 0 {
		off = (i/s.per)*(batch.HeaderSize+s.per*telemetry.PacketSize) + batch.HeaderSize + (i%s.per)*telemetry.PacketSize
	}
	return s.buf[off : off+telemetry.PacketSize]
}

func (s *stream) key(i int) uint64 { return packetKey(int(s.dev[i]), s.seq[i]) }

// newStream allocates the buffer for n packets, framed per packets to a
// frame when per > 0.
func newStream(n, per int) *stream {
	s := &stream{dev: make([]int32, n), seq: make([]uint32, n), per: per}
	size := n * telemetry.PacketSize
	if per > 0 {
		size += (n + per - 1) / per * batch.HeaderSize
	}
	s.buf = make([]byte, size)
	return s
}

// zipfStream draws n packets from a fleet of devices with Zipf-skewed
// activity (exponent 1.1, offset 20: the busiest device sends about 1%
// of the traffic, and most of the fleet is seen at least once), each
// device counting its sequence numbers up from 1.
func zipfStream(seed int64, devices, n, per int) *stream {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, 1.1, 20, uint64(devices-1))
	// Shuffle ranks onto fleet indices so the hot devices are not all
	// neighbours in address space.
	perm := r.Perm(devices)
	s := newStream(n, per)
	next := make([]uint32, devices)
	for i := 0; i < n; i++ {
		d := perm[z.Uint64()]
		next[d]++
		s.dev[i] = int32(d)
		s.seq[i] = next[d]
	}
	s.seal()
	return s
}

// seal signs every packet of the stream, in parallel, and writes the
// frame headers of a framed stream.
func (s *stream) seal() {
	n := s.len()
	keys := make(map[int32]telemetry.Key)
	for _, d := range s.dev {
		if _, ok := keys[d]; !ok {
			keys[d] = telemetry.DeriveKey([]byte(fleetMaster), deviceID(int(d)))
		}
	}
	const workers = 2
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				d := int(s.dev[i])
				wire, err := telemetry.Packet{
					Device:        deviceID(d),
					Seq:           s.seq[i],
					Sensor:        telemetry.SensorStrain,
					Value:         valueOf(d, s.seq[i]),
					UptimeSeconds: s.seq[i] * 3600,
				}.Seal(keys[s.dev[i]])
				if err != nil {
					errs[w] = err
					return
				}
				copy(s.wire(i), wire)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			panic(fmt.Sprintf("perfbench: sealing: %v", err)) // only a bad key or NaN value, both impossible here
		}
	}
	if s.per > 0 {
		for _, f := range s.frameViews() {
			// Rebuild the frame in place: AppendFrame writes the header
			// into the reserved bytes and copies each packet onto itself.
			ps := make([][]byte, 0, s.per)
			for i := batch.HeaderSize; i < len(f); i += telemetry.PacketSize {
				ps = append(ps, f[i:i+telemetry.PacketSize])
			}
			if _, err := batch.AppendFrame(f[:0], ps...); err != nil {
				panic(fmt.Sprintf("perfbench: framing: %v", err)) // packets are PacketSize by construction
			}
		}
	}
}

// frameViews returns a framed stream's frames, as views of its buffer.
func (s *stream) frameViews() [][]byte {
	var out [][]byte
	step := batch.HeaderSize + s.per*telemetry.PacketSize
	for off := 0; off < len(s.buf); off += step {
		out = append(out, s.buf[off:min(off+step, len(s.buf))])
	}
	return out
}

// frames packs the stream into new batch frames of per packets each, in
// stream order.
func (s *stream) frames(per int) [][]byte {
	var out [][]byte
	for lo := 0; lo < s.len(); lo += per {
		hi := min(lo+per, s.len())
		ps := make([][]byte, 0, hi-lo)
		for i := lo; i < hi; i++ {
			ps = append(ps, s.wire(i))
		}
		f, err := batch.AppendFrame(nil, ps...)
		if err != nil {
			panic(fmt.Sprintf("perfbench: framing: %v", err)) // packets are PacketSize by construction
		}
		out = append(out, f)
	}
	return out
}

// prefix copies the first n packets into a new packed stream.
func (s *stream) prefix(n int) *stream {
	p := newStream(n, 0)
	copy(p.dev, s.dev)
	copy(p.seq, s.seq)
	for i := 0; i < n; i++ {
		copy(p.wire(i), s.wire(i))
	}
	return p
}

// lookup returns the stream position of the packet with key k, or -1.
// The index is built on first use; only traced runs need it.
func (s *stream) lookup(k uint64) int {
	if s.index == nil {
		s.index = make(map[uint64]int32, s.len())
		for i := 0; i < s.len(); i++ {
			s.index[s.key(i)] = int32(i)
		}
	}
	if i, ok := s.index[k]; ok {
		return int(i)
	}
	return -1
}

// poissonSchedule returns n due offsets of a Poisson arrival process at
// rate per second.
func poissonSchedule(seed int64, rate float64, n int) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += r.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}
