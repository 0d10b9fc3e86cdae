package quorum

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"objalloc/internal/cost"
	"objalloc/internal/model"
	"objalloc/internal/netsim"
	"objalloc/internal/storage"
)

func newCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := New(Config{N: n, Preload: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 0},
		{N: 5, ReadQuorum: 2, WriteQuorum: 3}, // R+W = N, quorums may miss
		{N: 5, ReadQuorum: 4, WriteQuorum: 2}, // 2W <= N, write-write conflict
		{N: 3, Weights: []int{1, 1}},          // wrong weight count
		{N: 3, Weights: []int{1, -1, 1}},      // negative weight
		{N: 3, Weights: []int{0, 0, 0}},       // no votes at all
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
	// Majority defaults are valid.
	c, err := New(Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

func TestReadWriteRoundTrip(t *testing.T) {
	c := newCluster(t, 5)
	v, err := c.Write(2, []byte("quorum-data"))
	if err != nil {
		t.Fatal(err)
	}
	if v.Seq != 2 { // preloaded version is 1
		t.Errorf("write seq = %d, want 2", v.Seq)
	}
	got, err := c.Read(4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 2 || string(got.Data) != "quorum-data" {
		t.Errorf("read = %+v", got)
	}
}

func TestVersionNumbersMonotone(t *testing.T) {
	c := newCluster(t, 5)
	var last uint64
	for i := 0; i < 10; i++ {
		v, err := c.Write(model.ProcessorID(i%5), []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if v.Seq <= last {
			t.Fatalf("write %d: seq %d not greater than %d", i, v.Seq, last)
		}
		last = v.Seq
	}
	if c.LatestSeq() != last {
		t.Errorf("LatestSeq = %d, want %d", c.LatestSeq(), last)
	}
}

func TestReadsSeeLatestDespiteMinorityCrash(t *testing.T) {
	c := newCluster(t, 5)
	if _, err := c.Write(0, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// Crash a minority (2 of 5).
	c.Crash(1)
	c.Crash(3)
	if got := c.Alive(); got != model.NewSet(0, 2, 4) {
		t.Errorf("alive = %v", got)
	}
	v, err := c.Write(2, []byte("v3"))
	if err != nil {
		t.Fatalf("write with minority down: %v", err)
	}
	got, err := c.Read(4)
	if err != nil {
		t.Fatalf("read with minority down: %v", err)
	}
	if got.Seq != v.Seq || string(got.Data) != "v3" {
		t.Errorf("read = %+v, want seq %d", got, v.Seq)
	}
}

func TestUnavailableUnderMajorityCrash(t *testing.T) {
	c := newCluster(t, 5)
	c.Crash(0)
	c.Crash(1)
	c.Crash(2)
	if _, err := c.Read(4); !errors.Is(err, ErrUnavailable) {
		t.Errorf("read with majority down: %v, want ErrUnavailable", err)
	}
	if _, err := c.Write(4, nil); !errors.Is(err, ErrUnavailable) {
		t.Errorf("write with majority down: %v, want ErrUnavailable", err)
	}
}

func TestStaleReplicaNeverWins(t *testing.T) {
	// Crash processor 0, advance the object several versions, restart 0:
	// quorum reads must keep returning the latest version even though 0
	// answers votes with its stale number.
	c := newCluster(t, 5)
	c.Crash(0)
	for i := 0; i < 5; i++ {
		if _, err := c.Write(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Restart(0)
	latest := c.LatestSeq()
	for reader := model.ProcessorID(0); reader < 5; reader++ {
		v, err := c.Read(reader)
		if err != nil {
			t.Fatal(err)
		}
		if v.Seq != latest {
			t.Errorf("reader %d saw stale seq %d, want %d", reader, v.Seq, latest)
		}
	}
}

func TestRecoverCatchUp(t *testing.T) {
	c := newCluster(t, 5)
	c.Crash(0)
	for i := 0; i < 4; i++ {
		if _, err := c.Write(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Restart(0)
	missed, err := c.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if missed != 4 {
		t.Errorf("missed = %d, want 4", missed)
	}
	st, err := c.StoreOf(0)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := st.Peek()
	if !ok || v.Seq != c.LatestSeq() {
		t.Errorf("store after recover = %+v ok=%v, want seq %d", v, ok, c.LatestSeq())
	}
	// Recovering an up-to-date node misses nothing.
	missed, err = c.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if missed != 0 {
		t.Errorf("second recover missed = %d", missed)
	}
}

func TestWeightedVoting(t *testing.T) {
	// Gifford-style: processor 0 carries 3 votes of 5 total; R = W = 3.
	// Any quorum must include processor 0, so with only 0 alive plus one
	// more, operations still succeed; with 0 crashed they cannot.
	cfg := Config{N: 3, Weights: []int{3, 1, 1}, ReadQuorum: 3, WriteQuorum: 3, Preload: true}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.Crash(2)
	if _, err := c.Write(1, []byte("y")); err != nil {
		t.Fatalf("write with heavy voter alive: %v", err)
	}
	c.Restart(2)
	c.Crash(0)
	if _, err := c.Write(1, []byte("z")); !errors.Is(err, ErrUnavailable) {
		t.Errorf("write without heavy voter: %v, want ErrUnavailable", err)
	}
}

func TestQuorumIntersectionProperty(t *testing.T) {
	// For every valid (R, W) configuration on 5 processors, a write
	// followed by a read through disjoint issuers observes the write.
	for rq := 1; rq <= 5; rq++ {
		for wq := 1; wq <= 5; wq++ {
			if rq+wq <= 5 || 2*wq <= 5 {
				continue
			}
			c, err := New(Config{N: 5, ReadQuorum: rq, WriteQuorum: wq, Preload: true})
			if err != nil {
				t.Fatalf("R=%d W=%d: %v", rq, wq, err)
			}
			v, err := c.Write(0, []byte("w"))
			if err != nil {
				t.Fatalf("R=%d W=%d write: %v", rq, wq, err)
			}
			got, err := c.Read(4)
			if err != nil {
				t.Fatalf("R=%d W=%d read: %v", rq, wq, err)
			}
			if got.Seq != v.Seq {
				t.Errorf("R=%d W=%d: read seq %d, want %d", rq, wq, got.Seq, v.Seq)
			}
			c.Close()
		}
	}
}

func TestCostAccounting(t *testing.T) {
	// A majority write on 5 processors issued by a quorum member:
	// 2 remote vote requests + 2 vote replies (control), 2 pushes (data),
	// 2 acks (control), 3 outputs (I/O).
	c := newCluster(t, 5)
	if _, err := c.Write(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	counts := c.Counts()
	want := cost.Counts{Control: 2 + 2 + 2, Data: 2, IO: 3}
	if counts != want {
		t.Errorf("counts = %v, want %v", counts, want)
	}
	m := cost.SC(0.5, 2)
	if got := c.Cost(m); got != 6*0.5+2*2+3 {
		t.Errorf("cost = %g", got)
	}
}

// TestConcurrentReaders: twenty reads, four issued at each processor, in
// flight at once as one burst — every one observes the write before it.
func TestConcurrentReaders(t *testing.T) {
	c := newCluster(t, 5)
	if _, err := c.Write(0, []byte("shared")); err != nil {
		t.Fatal(err)
	}
	latest := c.LatestSeq()
	burst := make([]netsim.Op, 20)
	for i := range burst {
		op, err := c.voteOp(model.ProcessorID(i%5), opRead, nil)
		if err != nil {
			t.Fatal(err)
		}
		burst[i] = op
	}
	for i, res := range c.PerformAll(burst) {
		if res.Err == nil && res.Version.Seq != latest {
			res.Err = fmt.Errorf("stale read: seq %d, latest %d", res.Version.Seq, latest)
		}
		if res.Err != nil {
			t.Errorf("reader %d: %v", i, res.Err)
		}
	}
}

func TestHandoverFromExistingStores(t *testing.T) {
	// The failover path hands over surviving DA replicas: some stores come
	// preloaded with a current version, others empty. Quorum reads find
	// the version as long as a read quorum can see a holder.
	stores := make([]storage.Store, 5)
	for i := range stores {
		stores[i] = storage.NewMem()
	}
	// Three holders of version 7 (a majority), two empty replicas.
	for _, id := range []int{0, 2, 4} {
		if err := stores[id].Put(storage.Version{Seq: 7, Writer: 0, Data: []byte("live")}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := New(Config{N: 5, NewStore: func(id model.ProcessorID) (storage.Store, error) {
		return stores[id], nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v, err := c.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Seq != 7 || string(v.Data) != "live" {
		t.Errorf("read = %+v", v)
	}
	// Writes continue the version sequence past the handover.
	w, err := c.Write(3, []byte("next"))
	if err != nil {
		t.Fatal(err)
	}
	if w.Seq != 8 {
		t.Errorf("write seq = %d, want 8", w.Seq)
	}
}

func TestReadWithNoCopiesAnywhere(t *testing.T) {
	c, err := New(Config{N: 3}) // no preload: nobody has the object
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Read(0); !errors.Is(err, storage.ErrNoObject) {
		t.Errorf("read = %v, want ErrNoObject", err)
	}
	// The first write bootstraps version 1.
	v, err := c.Write(1, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	if v.Seq != 1 {
		t.Errorf("bootstrap seq = %d", v.Seq)
	}
}

func TestUnknownProcessor(t *testing.T) {
	c := newCluster(t, 3)
	if _, err := c.Read(9); err == nil {
		t.Error("unknown reader accepted")
	}
	if _, err := c.Write(9, nil); err == nil {
		t.Error("unknown writer accepted")
	}
	if _, err := c.StoreOf(9); err == nil {
		t.Error("unknown store accepted")
	}
}

func TestRandomizedLinearizability(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	c := newCluster(t, 5)
	latest := c.LatestSeq()
	for i := 0; i < 200; i++ {
		p := model.ProcessorID(rng.Intn(5))
		if rng.Float64() < 0.3 {
			v, err := c.Write(p, []byte{byte(i)})
			if err != nil {
				t.Fatal(err)
			}
			latest = v.Seq
		} else {
			v, err := c.Read(p)
			if err != nil {
				t.Fatal(err)
			}
			if v.Seq != latest {
				t.Fatalf("op %d: read seq %d, latest %d", i, v.Seq, latest)
			}
		}
	}
}

func TestReadRepair(t *testing.T) {
	c, err := New(Config{N: 5, Preload: true, ReadRepair: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Crash 0, advance the version, restart 0 with a stale copy.
	c.Crash(0)
	if _, err := c.Write(1, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	c.Restart(0)

	// A read issued *by* the stale node includes its own vote; repair
	// installs the latest version locally without an explicit Recover.
	v, err := c.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Data) != "fresh" {
		t.Fatalf("read = %+v", v)
	}
	st, err := c.StoreOf(0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := st.Peek()
	if !ok || got.Seq != v.Seq {
		t.Errorf("store 0 after read-repair = %+v ok=%v, want seq %d", got, ok, v.Seq)
	}
}

func TestReadRepairRemoteVoter(t *testing.T) {
	c, err := New(Config{N: 3, Preload: true, ReadRepair: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Crash(2)
	if _, err := c.Write(0, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	c.Restart(2)
	// A read from 0 whose quorum includes stale 2 (majority of 3 is 2:
	// quorum prefers self then low ids; force inclusion by reading from 2's
	// neighborhood: read from 1, quorum = {1, 0} — may not include 2.
	// Read from 2 itself guarantees inclusion.
	if _, err := c.Read(2); err != nil {
		t.Fatal(err)
	}
	st, _ := c.StoreOf(2)
	if v, ok := st.Peek(); !ok || v.Seq != c.LatestSeq() {
		t.Errorf("stale voter not repaired: %+v ok=%v", v, ok)
	}
}

func TestNoRepairWithoutFlag(t *testing.T) {
	c := newCluster(t, 5)
	c.Crash(0)
	if _, err := c.Write(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.Restart(0)
	if _, err := c.Read(0); err != nil {
		t.Fatal(err)
	}
	st, _ := c.StoreOf(0)
	if v, ok := st.Peek(); ok && v.Seq == c.LatestSeq() {
		t.Error("repair happened although ReadRepair is off")
	}
}

func TestNetworkAccessor(t *testing.T) {
	c := newCluster(t, 3)
	if c.Network() == nil {
		t.Fatal("nil network")
	}
	if got := c.Network().Stats(); got.ControlSent != 0 {
		t.Errorf("fresh network stats = %+v", got)
	}
}

func TestRecoverUnknownProcessor(t *testing.T) {
	c := newCluster(t, 3)
	if _, err := c.Recover(9); err == nil {
		t.Error("recover of unknown processor accepted")
	}
}

func TestRecoverWhileUnavailable(t *testing.T) {
	c := newCluster(t, 3)
	c.Crash(1)
	c.Crash(2)
	if _, err := c.Recover(0); err == nil {
		t.Error("recover without a quorum accepted")
	}
}

func TestReadRepairLowersSubsequentReadCost(t *testing.T) {
	// After repair, a stale node's next read finds the maximum at itself
	// and fetches locally — no data message. Compare the data-message
	// count of two reads with and without repair.
	drive := func(repair bool) int {
		c, err := New(Config{N: 3, Preload: true, ReadRepair: repair})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Crash(0)
		if _, err := c.Write(1, []byte("v2")); err != nil {
			t.Fatal(err)
		}
		c.Restart(0)
		c.Network().ResetStats()
		for i := 0; i < 4; i++ {
			if _, err := c.Read(0); err != nil {
				t.Fatal(err)
			}
		}
		return c.Network().Stats().DataSent
	}
	with, without := drive(true), drive(false)
	if with >= without {
		t.Errorf("read repair did not reduce data traffic: with %d, without %d", with, without)
	}
}

func TestQuiesceSettlesReadRepair(t *testing.T) {
	c, err := New(Config{N: 3, Preload: true, ReadRepair: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Crash(2)
	if _, err := c.Write(0, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	c.Restart(2)
	// A read by 0 that includes 2 in its quorum triggers a repair push;
	// Quiesce guarantees it has been applied.
	if _, err := c.Read(2); err != nil {
		t.Fatal(err)
	}
	c.Quiesce()
	st, _ := c.StoreOf(2)
	if v, ok := st.Peek(); !ok || v.Seq != c.LatestSeq() {
		t.Errorf("repair not settled after Quiesce: %+v ok=%v", v, ok)
	}
}

// Scale: majority quorums on 21 processors with 10 crashed still serve
// linearizable reads and writes.
func TestQuorumAtScaleWithMaxMinorityDown(t *testing.T) {
	c := newCluster(t, 21)
	for i := 0; i < 10; i++ {
		c.Crash(model.ProcessorID(i))
	}
	latest := c.LatestSeq()
	for i := 0; i < 30; i++ {
		p := model.ProcessorID(10 + i%11)
		if i%3 == 0 {
			v, err := c.Write(p, []byte{byte(i)})
			if err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			latest = v.Seq
		} else {
			v, err := c.Read(p)
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			if v.Seq != latest {
				t.Fatalf("read %d: seq %d, latest %d", i, v.Seq, latest)
			}
		}
	}
	// One more crash crosses the majority line.
	c.Crash(10)
	if _, err := c.Read(12); !errors.Is(err, ErrUnavailable) {
		t.Errorf("read with majority down: %v", err)
	}
}
