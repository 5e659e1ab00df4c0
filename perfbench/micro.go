package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"trips/internal/cache"
	"trips/internal/chip"
	"trips/internal/critpath"
	"trips/internal/lsq"
	"trips/internal/mem"
	"trips/internal/micronet"
	"trips/internal/nuca"
	"trips/internal/predictor"
	"trips/internal/proc"
)

// Per-layer microbenchmarks: each drives one layer through its public API
// and reports host time per unit of work and heap allocations per
// operation, so a regression can be pinned on a layer.

// microBatch is the least time one timed batch of operations takes.
const microBatch = 20 * time.Millisecond

// timeOp runs op in batches sized to take at least microBatch and returns
// the median over three batches of nanoseconds per unit (op does units
// units of work) and allocations per op.
func timeOp(units float64, op func() error) (ns, allocs float64, err error) {
	batch := func(n int) (time.Duration, uint64, error) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return 0, 0, err
			}
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms)
		return d, ms.Mallocs - m0, nil
	}
	n := 1
	for {
		d, _, err := batch(n)
		if err != nil {
			return 0, 0, err
		}
		if d >= microBatch {
			break
		}
		n *= 2
	}
	var nss, as []float64
	for k := 0; k < 3; k++ {
		d, a, err := batch(n)
		if err != nil {
			return 0, 0, err
		}
		nss = append(nss, float64(d.Nanoseconds())/float64(n)/units)
		as = append(as, float64(a)/float64(n))
	}
	return median(nss), median(as), nil
}

// hopMsg is a mesh message that only knows its destination.
type hopMsg struct{ dst micronet.Coord }

func (m *hopMsg) Dest() micronet.Coord { return m.dst }

// gcnPayload has the size of the core's global-control-network message
// (104 bytes), which the broadcast network copies at every link.
type gcnPayload [13]uint64

// errStop ends a chip run from its checkpoint hook once the checkpoint
// microbenchmarks are done.
var errStop = errors.New("checkpoint microbenchmarks done")

// microbenchmarks runs every per-layer microbenchmark and records
// <layer>.<name>_ns (or _ms) and <layer>.<name>_allocs in m.
func microbenchmarks(m map[string]metric) error {
	record := func(name, unit string, scale, units float64, op func() error) error {
		ns, allocs, err := timeOp(units, op)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m[name+"_"+unit] = metric{ns / scale, unit}
		m[name+"_allocs"] = metric{allocs, "allocs/op"}
		return nil
	}

	// An OPN-sized 5x5 mesh carries one message corner to corner (8 hops).
	mesh := micronet.NewMesh[*hopMsg]("opn", 5, 5)
	far := micronet.Coord{Row: 4, Col: 4}
	hm := &hopMsg{dst: far}
	if err := record("micronet.mesh_hop", "ns", 1, 8, func() error {
		mesh.Inject(micronet.Coord{}, hm)
		for t := 0; t < 64; t++ {
			mesh.Tick()
			mesh.Propagate()
			if _, ok := mesh.Deliver(far); ok {
				mesh.Pop(far)
				return nil
			}
		}
		return errors.New("mesh message not delivered")
	}); err != nil {
		return err
	}

	// A GCN-sized broadcast wave reaches the far corner in 8 ticks.
	bcast := micronet.NewBroadcast[gcnPayload]("gcn", 5, 5)
	var payload gcnPayload
	if err := record("micronet.bcast_tick", "ns", 1, 8, func() error {
		bcast.Inject(payload)
		for t := 0; t < 64; t++ {
			bcast.Tick()
			bcast.Propagate()
			if _, ok := bcast.Deliver(far); ok {
				for r := 0; r < 5; r++ {
					for c := 0; c < 5; c++ {
						bcast.Pop(micronet.Coord{Row: r, Col: c})
					}
				}
				return nil
			}
		}
		return errors.New("broadcast wave not delivered")
	}); err != nil {
		return err
	}

	// A status chain of five nodes forwards one message from the tail to
	// the head, one hop per tick.
	const chainN = 5
	chain := micronet.NewChain[uint64]("gsn", chainN)
	if err := record("micronet.chain_tick", "ns", 1, chainN-1, func() error {
		chain.Send(chainN-1, 1)
		chain.Propagate()
		for at := chainN - 2; at >= 0; at-- {
			v, ok := chain.Recv(at)
			if !ok {
				return errors.New("chain message not delivered")
			}
			chain.Pop(at)
			if at > 0 {
				chain.Send(at, v)
			}
			chain.Propagate()
		}
		return nil
	}); err != nil {
		return err
	}

	// One block's eight loads and eight stores enter an LSQ replica, then
	// the block commits.
	q := lsq.New()
	var seq uint64
	if err := record("lsq.insert_commit", "ns", 1, 16, func() error {
		seq++
		for i := 0; i < 16; i++ {
			key := lsq.OrderKey(seq, i)
			addr := 0x1000 + uint64(i%8)*8
			var err error
			if i%2 == 0 {
				_, _, err = q.InsertLoad(key, seq, addr, 8)
			} else {
				_, err = q.InsertStore(key, seq, addr, 8, uint64(i), false)
			}
			if err != nil {
				return err
			}
		}
		q.CommitBlock(seq)
		return nil
	}); err != nil {
		return err
	}

	// A 64 KB NUCA bank sees 8-byte reads over a 128 KB footprint; a miss
	// fills the line.
	bank := cache.NewBank(64<<10, 4, nuca.LineBytes)
	rng := rand.New(rand.NewSource(defaultSeed))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(128<<10)) &^ 7
	}
	line := make([]byte, nuca.LineBytes)
	var ai int
	if err := record("cache.bank_access", "ns", 1, 1, func() error {
		a := addrs[ai%len(addrs)]
		ai++
		if _, ok := bank.Read(a, 8); !ok {
			bank.Fill(a, line)
		}
		return nil
	}); err != nil {
		return err
	}

	// A core port reads one word through the OCN from a warm L2 bank.
	sys := nuca.New(nuca.Config{Backing: mem.New()})
	port := sys.Port("dt0")
	var done bool
	req := &proc.MemRequest{N: 8, Done: func([]byte) { done = true }}
	roundTrip := func(addr uint64) error {
		req.Addr, done = addr, false
		for t := 0; !port.Submit(req); t++ {
			if t > 10_000 {
				return errors.New("NUCA port refused the request")
			}
			sys.Tick()
		}
		for t := 0; t < 10_000; t++ {
			sys.Tick()
			if done {
				return nil
			}
		}
		return errors.New("NUCA request did not complete")
	}
	for i := 0; i < 32; i++ { // warm the lines
		if err := roundTrip(uint64(i) * nuca.LineBytes); err != nil {
			return err
		}
	}
	var ri int
	if err := record("nuca.port_roundtrip", "ns", 1, 1, func() error {
		ri++
		return roundTrip(uint64(ri%32) * nuca.LineBytes)
	}); err != nil {
		return err
	}
	if sys.Outstanding() != 0 {
		return errors.New("NUCA transactions left pending")
	}

	// One critical-path event per operation.
	root := critpath.Root()
	var cyc int64
	split := critpath.Split{1, 1, 1}
	if err := record("critpath.new", "ns", 1, 1, func() error {
		cyc += 4
		if critpath.New(cyc, root, split, critpath.CatOther) == nil {
			return errors.New("no event")
		}
		return nil
	}); err != nil {
		return err
	}

	// One block prediction and its training, over a 64-block loop.
	pred := predictor.New()
	var pi uint64
	if err := record("predictor.predict_update", "ns", 1, 1, func() error {
		addr := 0x10000 + (pi%64)*128
		pi++
		next := addr + 128
		p := pred.Predict(addr, next)
		pred.Update(addr, p, int(pi%3), predictor.KindBranch, next, next)
		return nil
	}); err != nil {
		return err
	}

	return ckptMicro(m, record)
}

// ckptAt is the cycle after which the checkpoint microbenchmarks catch the
// chip: both cores are still running vadd and the DMA copy is in flight.
const ckptAt = 4000

// ckptMicro times Chip.Checkpoint and chip.RestoreChip on a chip-dual
// machine (vadd on both cores beside the DMA copy) caught mid-run.
func ckptMicro(m map[string]metric, record func(name, unit string, scale, units float64, op func() error) error) error {
	runs, err := prepareChipRuns(defaultSeed, nil)
	if err != nil {
		return err
	}
	r := runs[0]
	c, _, err := r.newChip()
	if err != nil {
		return err
	}
	var frame []byte
	var inner error
	c.SetCheckpointHook(ckptAt, func(int64) error {
		var buf bytes.Buffer
		if inner = record("ckpt.save", "ms", 1e6, 1, func() error { buf.Reset(); return c.Checkpoint(&buf) }); inner != nil {
			return errStop
		}
		frame = buf.Bytes()
		cfg := chip.Config{Programs: r.progs, Backing: mem.New(), Partition: true}
		inner = record("ckpt.restore", "ms", 1e6, 1, func() error {
			_, err := chip.RestoreChip(bytes.NewReader(frame), cfg)
			return err
		})
		return errStop
	})
	if err := c.Run(); !errors.Is(err, errStop) {
		return fmt.Errorf("checkpoint microbenchmarks: chip run ended with %v before its checkpoint hook", err)
	}
	if inner != nil {
		return inner
	}
	m["ckpt.chip_frame_bytes"] = metric{float64(len(frame)), "B"}
	return nil
}
