package simnet

import (
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/flashroute/flashroute/internal/simclock"
)

// stubWire answers every probe whose first byte is nonzero with one
// immediately deliverable, unthrottled reply carrying the probe's
// 4-byte id; a zero first byte falls off the route.
type stubWire struct{}

func (stubWire) Probe(pkt []byte, _ int, _ time.Duration) (Fate[uint32, uint32], error) {
	if len(pkt) < 5 {
		return Fate[uint32, uint32]{}, errors.New("short probe")
	}
	if pkt[0] == 0 {
		return Fate[uint32, uint32]{Outcome: FateNoRoute}, nil
	}
	return Fate[uint32, uint32]{Outcome: FateReply, Reply: binary.BigEndian.Uint32(pkt[1:])}, nil
}

func (stubWire) Materialize(buf []byte, reply uint32) int {
	binary.BigEndian.PutUint32(buf, reply)
	return 4
}

// rendezvousWire is stubWire whose Probe waits until two probes are
// being resolved at once, giving up after five seconds.
type rendezvousWire struct {
	stubWire
	arrived  atomic.Int32
	met      chan struct{}
	timedOut atomic.Bool
}

func (w *rendezvousWire) Probe(pkt []byte, vantage int, now time.Duration) (Fate[uint32, uint32], error) {
	if w.arrived.Add(1) == 2 {
		close(w.met)
	}
	select {
	case <-w.met:
	case <-time.After(5 * time.Second):
		w.timedOut.Store(true)
	}
	return w.stubWire.Probe(pkt, vantage, now)
}

func newStubLink[W Wire[uint32, uint32]](wire W, impair *Impairments) *Link[uint32, uint32] {
	limit := 0
	return NewLink[uint32, uint32](simclock.NewReal(), wire, func(a uint32) uint32 { return a },
		1, &limit, impair)
}

// TestWriteBatchCallersOverlap: two goroutines batch-writing one Conn
// must resolve their packets at the same time — a writer lock held
// across the batch would keep the second caller out until the first
// gave up waiting.
func TestWriteBatchCallersOverlap(t *testing.T) {
	wire := &rendezvousWire{met: make(chan struct{})}
	conn := newStubLink(wire, &Impairments{}).NewConn()
	defer conn.Close()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pkt := []byte{1, 0, 0, 0, byte(g)}
			if n, err := conn.WriteBatch([][]byte{pkt}); n != 1 || err != nil {
				t.Errorf("writer %d: WriteBatch = (%d, %v)", g, n, err)
			}
		}(g)
	}
	wg.Wait()
	if wire.timedOut.Load() {
		t.Fatal("concurrent WriteBatch callers never resolved a probe at the same time")
	}
}

// TestConcurrentBatchWritersAccounting: four goroutines writing batches
// of random size (crossing the staging array's commit boundary) through
// loss and duplication, with a reader draining concurrently. Every
// packet written counts as sent, and the reader drains exactly the
// responses the link committed.
func TestConcurrentBatchWritersAccounting(t *testing.T) {
	const writers, batches = 4, 40
	check := func(seed int64) bool {
		link := newStubLink(stubWire{}, &Impairments{LossProb: 0.1, DupProb: 0.2})
		conn := link.NewConn()

		read := make(chan int)
		go func() {
			bufs, sizes := make([][]byte, 16), make([]int, 16)
			for i := range bufs {
				bufs[i] = make([]byte, 4)
			}
			total := 0
			for {
				k, err := conn.ReadBatch(bufs, sizes)
				total += k
				if err == io.EOF {
					read <- total
					return
				}
			}
		}()

		var written atomic.Uint64
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				for b := 0; b < batches; b++ {
					pkts := make([][]byte, 1+rng.Intn(3*stageBatch))
					for i := range pkts {
						pkts[i] = []byte{byte(rng.Intn(4)), 0, 0, byte(b), byte(i)}
					}
					n, err := conn.WriteBatch(pkts)
					written.Add(uint64(n))
					if n != len(pkts) || err != nil {
						t.Errorf("WriteBatch = (%d, %v), want (%d, nil)", n, err, len(pkts))
					}
				}
			}(rand.New(rand.NewSource(seed + int64(g))))
		}
		wg.Wait()
		conn.Close()
		drained := <-read

		st := &link.Stats
		if sent := st.ProbesSent.Load(); sent != written.Load() {
			t.Errorf("seed %d: ProbesSent %d, written %d", seed, sent, written.Load())
			return false
		}
		if resp := st.Responses.Load(); uint64(drained) != resp || resp == 0 {
			t.Errorf("seed %d: drained %d replies, Responses %d", seed, drained, resp)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
