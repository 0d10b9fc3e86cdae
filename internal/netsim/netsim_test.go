package netsim

import (
	"fmt"
	"testing"

	"objalloc/internal/model"
	"objalloc/internal/storage"
)

func TestKindClassification(t *testing.T) {
	dataTypes := []Type{TReadReply, TWritePush, TQuorumReadReply, TQuorumWrite}
	controlTypes := []Type{TReadReq, TInvalidate, TJoin, TVoteReq, TVoteReply, TQuorumRead, TQuorumAck}
	for _, ty := range dataTypes {
		if ty.DefaultKind() != Data {
			t.Errorf("%v classified as %v, want data", ty, ty.DefaultKind())
		}
	}
	for _, ty := range controlTypes {
		if ty.DefaultKind() != Control {
			t.Errorf("%v classified as %v, want control", ty, ty.DefaultKind())
		}
	}
}

func TestStringers(t *testing.T) {
	if Control.String() != "control" || Data.String() != "data" {
		t.Error("Kind strings wrong")
	}
	if TReadReq.String() != "read-req" {
		t.Errorf("TReadReq = %q", TReadReq.String())
	}
	if Kind(9).String() == "" || Type(99).String() == "" {
		t.Error("unknown enums should still render")
	}
	// Every message type has its own name; values outside the table keep
	// the numeric form.
	seen := map[string]Type{}
	for typ := Type(0); int(typ) < NumTypes; typ++ {
		name := typ.String()
		if prev, dup := seen[name]; name == "" || dup {
			t.Errorf("Type(%d) renders %q (also Type(%d))", int(typ), name, int(prev))
		}
		seen[name] = typ
	}
	if got := Type(NumTypes).String(); got != fmt.Sprintf("Type(%d)", NumTypes) {
		t.Errorf("Type(NumTypes) = %q", got)
	}
	if got := Type(-1).String(); got != "Type(-1)" {
		t.Errorf("Type(-1) = %q", got)
	}
}

func TestSendRecv(t *testing.T) {
	nw := New(3)
	defer nw.Close()
	ep, err := nw.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	nw.Send(Message{From: 0, To: 1, Type: TReadReq, Seq: 42})
	m, ok := ep.TryRecv()
	if !ok {
		t.Fatal("TryRecv failed")
	}
	if m.From != 0 || m.To != 1 || m.Type != TReadReq || m.Seq != 42 {
		t.Errorf("got %+v", m)
	}
}

func TestFIFOOrder(t *testing.T) {
	nw := New(2)
	defer nw.Close()
	ep, _ := nw.Endpoint(1)
	for i := uint64(0); i < 100; i++ {
		nw.Send(Message{From: 0, To: 1, Type: TReadReq, Seq: i})
	}
	for i := uint64(0); i < 100; i++ {
		m, ok := ep.TryRecv()
		if !ok || m.Seq != i {
			t.Fatalf("message %d: got %+v ok=%v", i, m, ok)
		}
	}
}

func TestBilling(t *testing.T) {
	nw := New(2)
	defer nw.Close()
	nw.Send(Message{From: 0, To: 1, Type: TReadReq})    // control
	nw.Send(Message{From: 1, To: 0, Type: TReadReply})  // data
	nw.Send(Message{From: 0, To: 1, Type: TWritePush})  // data
	nw.Send(Message{From: 0, To: 1, Type: TInvalidate}) // control
	st := nw.Stats()
	if st.ControlSent != 2 || st.DataSent != 2 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
	nw.ResetStats()
	if nw.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero")
	}
}

func TestUnknownDestinationBilledAndDropped(t *testing.T) {
	nw := New(2)
	defer nw.Close()
	nw.Send(Message{From: 0, To: 7, Type: TReadReq})
	st := nw.Stats()
	if st.ControlSent != 1 || st.Dropped != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCrashDropsAndDiscards(t *testing.T) {
	nw := New(2)
	defer nw.Close()
	ep, _ := nw.Endpoint(1)
	nw.Send(Message{From: 0, To: 1, Type: TReadReq})
	nw.Crash(1)
	if ep.Len() != 0 {
		t.Error("crash did not discard queued messages")
	}
	nw.Send(Message{From: 0, To: 1, Type: TReadReq})
	if nw.Stats().Dropped != 1 {
		t.Errorf("dropped = %d", nw.Stats().Dropped)
	}
	if !nw.Crashed(1) {
		t.Error("Crashed(1) = false")
	}
	// A crashed sender cannot transmit either.
	nw.Send(Message{From: 1, To: 0, Type: TReadReq})
	if nw.Stats().Dropped != 2 {
		t.Errorf("dropped = %d after crashed sender", nw.Stats().Dropped)
	}
	nw.Restart(1)
	nw.Send(Message{From: 0, To: 1, Type: TReadReq})
	if _, ok := ep.TryRecv(); !ok {
		t.Error("message after restart not delivered")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	nw := New(3)
	defer nw.Close()
	nw.Partition(0, 1)
	ep1, _ := nw.Endpoint(1)
	ep2, _ := nw.Endpoint(2)
	nw.Send(Message{From: 0, To: 1, Type: TReadReq})
	nw.Send(Message{From: 1, To: 0, Type: TReadReq})
	nw.Send(Message{From: 0, To: 2, Type: TReadReq}) // unaffected link
	if nw.Stats().Dropped != 2 {
		t.Errorf("dropped = %d", nw.Stats().Dropped)
	}
	if _, ok := ep2.TryRecv(); !ok {
		t.Error("unaffected link blocked")
	}
	nw.Heal(0, 1)
	nw.Send(Message{From: 0, To: 1, Type: TReadReq})
	if _, ok := ep1.TryRecv(); !ok {
		t.Error("healed link still blocked")
	}
}

// TestCloseDiscardsAndIsIdempotent: closing the network throws away what
// was queued, a later send is billed and dropped like any send nobody can
// receive, and a second Close changes nothing.
func TestCloseDiscardsAndIsIdempotent(t *testing.T) {
	nw := New(2)
	ep, _ := nw.Endpoint(1)
	nw.Send(Message{From: 0, To: 1, Type: TReadReq})
	if ep.Len() != 1 {
		t.Fatalf("queued %d before Close, want 1", ep.Len())
	}
	nw.Close()
	if m, ok := ep.TryRecv(); ok {
		t.Errorf("TryRecv after Close returned %+v", m)
	}
	nw.Send(Message{From: 0, To: 1, Type: TReadReq})
	if ep.Len() != 0 {
		t.Error("a send after Close was delivered")
	}
	want := Stats{ControlSent: 2, Dropped: 1}
	want.PerType[TReadReq] = 2
	if st := nw.Stats(); st != want {
		t.Errorf("stats after Close = %+v, want %+v", st, want)
	}
	nw.Close()
	if st := nw.Stats(); st != want || ep.Len() != 0 {
		t.Errorf("second Close changed the network: stats %+v, %d queued", st, ep.Len())
	}
}

func TestTryRecv(t *testing.T) {
	nw := New(2)
	defer nw.Close()
	ep, _ := nw.Endpoint(1)
	if _, ok := ep.TryRecv(); ok {
		t.Error("TryRecv on empty mailbox returned a message")
	}
	nw.Send(Message{From: 0, To: 1, Type: TReadReq})
	if _, ok := ep.TryRecv(); !ok {
		t.Error("TryRecv missed queued message")
	}
}

func TestTraceCallback(t *testing.T) {
	nw := New(2)
	defer nw.Close()
	var seen []bool
	nw.Trace(func(m Message, delivered bool) { seen = append(seen, delivered) })
	nw.Send(Message{From: 0, To: 1, Type: TReadReq})
	nw.Crash(1)
	nw.Send(Message{From: 0, To: 1, Type: TReadReq})
	if len(seen) != 2 || !seen[0] || seen[1] {
		t.Errorf("trace = %v", seen)
	}
}

func TestDataPayloadDelivered(t *testing.T) {
	nw := New(2)
	defer nw.Close()
	ep, _ := nw.Endpoint(1)
	v := storage.Version{Seq: 9, Writer: 0, Data: []byte("payload")}
	nw.Send(Message{From: 0, To: 1, Type: TWritePush, Seq: 9, Version: v})
	m, ok := ep.TryRecv()
	if !ok || m.Version.Seq != 9 || string(m.Version.Data) != "payload" {
		t.Errorf("payload = %+v ok=%v", m, ok)
	}
}

// TestInterleavedSendersAllDelivered: eight senders interleaved round-robin
// into one mailbox — every send is billed and delivered, and each sender's
// messages arrive in the order it sent them.
func TestInterleavedSendersAllDelivered(t *testing.T) {
	nw := New(9)
	defer nw.Close()
	ep, _ := nw.Endpoint(8)
	const perSender, senders = 200, 8
	for i := 0; i < perSender; i++ {
		for s := 0; s < senders; s++ {
			nw.Send(Message{From: model.ProcessorID(s), To: 8, Type: TReadReq, Seq: uint64(i)})
		}
	}
	if got := ep.Len(); got != perSender*senders {
		t.Errorf("delivered %d, want %d", got, perSender*senders)
	}
	st := nw.Stats()
	if st.ControlSent != perSender*senders || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
	var next [senders]uint64 // the Seq each sender's next message must carry
	for i := 0; i < perSender*senders; i++ {
		m, ok := ep.TryRecv()
		if !ok {
			t.Fatalf("queue shorter than reported at %d", i)
		}
		if m.Seq != next[m.From] {
			t.Fatalf("message %d from sender %d carries seq %d, want %d", i, m.From, m.Seq, next[m.From])
		}
		next[m.From]++
	}
	for s, n := range next {
		if n != perSender {
			t.Errorf("sender %d: %d messages received, want %d", s, n, perSender)
		}
	}
}

func TestEndpointUnknown(t *testing.T) {
	nw := New(1)
	defer nw.Close()
	if _, err := nw.Endpoint(5); err == nil {
		t.Error("unknown endpoint returned without error")
	}
	if ep, err := nw.Endpoint(0); err != nil || ep.ID() != 0 {
		t.Errorf("Endpoint(0) = %v, %v", ep, err)
	}
}

func TestPerNodeStats(t *testing.T) {
	nw := New(3)
	defer nw.Close()
	nw.Send(Message{From: 0, To: 1, Type: TReadReq})   // control 0->1
	nw.Send(Message{From: 1, To: 0, Type: TReadReply}) // data 1->0
	nw.Send(Message{From: 0, To: 2, Type: TWritePush}) // data 0->2

	n0 := nw.NodeStatsOf(0)
	if n0.ControlSent != 1 || n0.DataSent != 1 || n0.DataReceived != 1 || n0.ControlReceived != 0 {
		t.Errorf("node 0 stats = %+v", n0)
	}
	n1 := nw.NodeStatsOf(1)
	if n1.ControlReceived != 1 || n1.DataSent != 1 {
		t.Errorf("node 1 stats = %+v", n1)
	}
	if got := nw.NodeStatsOf(9); got != (NodeStats{}) {
		t.Errorf("unknown node stats = %+v", got)
	}
	nw.ResetStats()
	if nw.NodeStatsOf(0) != (NodeStats{}) {
		t.Error("ResetStats did not zero per-node counters")
	}
}

func TestPerNodeTotalsMatchGlobal(t *testing.T) {
	nw := New(4)
	defer nw.Close()
	for i := 0; i < 50; i++ {
		nw.Send(Message{From: model.ProcessorID(i % 4), To: model.ProcessorID((i + 1) % 4), Type: TReadReq})
		nw.Send(Message{From: model.ProcessorID(i % 4), To: model.ProcessorID((i + 2) % 4), Type: TWritePush})
	}
	var sent, data int
	for id := model.ProcessorID(0); id < 4; id++ {
		ns := nw.NodeStatsOf(id)
		sent += ns.ControlSent
		data += ns.DataSent
	}
	st := nw.Stats()
	if sent != st.ControlSent || data != st.DataSent {
		t.Errorf("per-node totals (%d,%d) != global (%d,%d)", sent, data, st.ControlSent, st.DataSent)
	}
}
