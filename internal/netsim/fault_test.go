package netsim

import (
	"fmt"
	"testing"

	"objalloc/internal/model"
	"objalloc/internal/obs"
)

// traceLog collects the delivery decisions of a network run so two runs
// can be compared event for event.
type traceLog struct {
	log []struct {
		m         Message
		delivered bool
	}
}

func (t *traceLog) hook() func(Message, bool) {
	return func(m Message, delivered bool) {
		t.log = append(t.log, struct {
			m         Message
			delivered bool
		}{m, delivered})
	}
}

// driveSequence sends a fixed message sequence over a fresh network with
// the given plan and returns the trace and final stats.
func driveSequence(t *testing.T, plan FaultPlan, n, sends int) (*traceLog, Stats) {
	t.Helper()
	nw := New(n)
	defer nw.Close()
	if err := nw.InstallFaults(plan); err != nil {
		t.Fatalf("InstallFaults: %v", err)
	}
	tl := &traceLog{}
	nw.Trace(tl.hook())
	for i := 0; i < sends; i++ {
		from := model.ProcessorID(i % n)
		to := model.ProcessorID((i + 1 + i/n) % n)
		if from == to {
			to = model.ProcessorID((int(to) + 1) % n)
		}
		typ := TReadReq
		if i%3 == 0 {
			typ = TWritePush
		}
		nw.Send(Message{From: from, To: to, Type: typ, Seq: uint64(i)})
	}
	nw.ReleaseAll()
	return tl, nw.Stats()
}

func TestFaultPlanDeterminism(t *testing.T) {
	plan := FaultPlan{Seed: 42, Loss: 0.2, Dup: 0.1, Delay: 0.15, DelayMax: 3, Flap: 0.02, FlapLen: 4}
	t1, s1 := driveSequence(t, plan, 5, 400)
	t2, s2 := driveSequence(t, plan, 5, 400)
	if s1 != s2 {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", s1, s2)
	}
	if len(t1.log) != len(t2.log) {
		t.Fatalf("same seed, different trace lengths: %d vs %d", len(t1.log), len(t2.log))
	}
	for i := range t1.log {
		a, b := fmt.Sprintf("%+v", t1.log[i]), fmt.Sprintf("%+v", t2.log[i])
		if a != b {
			t.Fatalf("trace diverges at %d: %s vs %s", i, a, b)
		}
	}
	if s1.Dropped == 0 || s1.Duplicated == 0 || s1.Delayed == 0 {
		t.Fatalf("plan injected nothing: %+v", s1)
	}
	_, s3 := driveSequence(t, FaultPlan{Seed: 43, Loss: 0.2, Dup: 0.1, Delay: 0.15, DelayMax: 3, Flap: 0.02, FlapLen: 4}, 5, 400)
	if s1 == s3 {
		t.Fatalf("different seeds produced identical stats: %+v", s1)
	}
}

func TestFaultLossDropsSilently(t *testing.T) {
	nw := New(2)
	defer nw.Close()
	if err := nw.InstallFaults(FaultPlan{Seed: 1, Loss: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		nw.Send(Message{From: 0, To: 1, Type: TReadReq})
	}
	st := nw.Stats()
	if st.Dropped != 10 || st.DroppedLoss != 10 {
		t.Fatalf("Loss=1 should drop everything: %+v", st)
	}
	if st.Nacks != 0 {
		t.Fatalf("probabilistic loss must be silent (no nack): %+v", st)
	}
	ep, _ := nw.Endpoint(0)
	if ep.Len() != 0 {
		t.Fatalf("sender mailbox should be empty, has %d", ep.Len())
	}
	if st.ControlSent != 10 {
		t.Fatalf("dropped messages are still billed: %+v", st)
	}
}

func TestFaultDuplication(t *testing.T) {
	nw := New(2)
	defer nw.Close()
	if err := nw.InstallFaults(FaultPlan{Seed: 1, Dup: 1}); err != nil {
		t.Fatal(err)
	}
	nw.Send(Message{From: 0, To: 1, Type: TReadReq})
	ep, _ := nw.Endpoint(1)
	if got := ep.Len(); got != 2 {
		t.Fatalf("Dup=1 should deliver twice, got %d", got)
	}
	st := nw.Stats()
	if st.Duplicated != 1 || st.ControlSent != 1 {
		t.Fatalf("duplicate is free, original billed once: %+v", st)
	}
}

func TestFaultDelayAndRelease(t *testing.T) {
	nw := New(2)
	defer nw.Close()
	if err := nw.InstallFaults(FaultPlan{Seed: 7, Delay: 1, DelayMax: 1000}); err != nil {
		t.Fatal(err)
	}
	const sends = 5
	for i := 0; i < sends; i++ {
		nw.Send(Message{From: 0, To: 1, Type: TReadReq, Seq: uint64(i)})
	}
	ep, _ := nw.Endpoint(1)
	if ep.Len() != 0 {
		t.Fatalf("DelayMax=1000 over %d sends should hold everything, delivered %d", sends, ep.Len())
	}
	if st := nw.Stats(); st.Delayed != sends {
		t.Fatalf("Delayed = %d, want %d", st.Delayed, sends)
	}
	if released := nw.ReleaseAll(); released != sends {
		t.Fatalf("ReleaseAll = %d, want %d", released, sends)
	}
	if ep.Len() != sends {
		t.Fatalf("after ReleaseAll mailbox has %d, want %d", ep.Len(), sends)
	}
	if released := nw.ReleaseAll(); released != 0 {
		t.Fatalf("second ReleaseAll = %d, want 0", released)
	}
}

func TestFaultDelayedMessageToCrashedDestDropped(t *testing.T) {
	nw := New(2)
	defer nw.Close()
	if err := nw.InstallFaults(FaultPlan{Seed: 7, Delay: 1, DelayMax: 1000}); err != nil {
		t.Fatal(err)
	}
	nw.Send(Message{From: 0, To: 1, Type: TWritePush, Seq: 9})
	if err := nw.Crash(1); err != nil {
		t.Fatal(err)
	}
	nw.ReleaseAll()
	ep1, _ := nw.Endpoint(1)
	if ep1.Len() != 0 {
		t.Fatalf("crashed destination received a held message")
	}
	// The structural drop at release time bounces a nack to the sender.
	ep0, _ := nw.Endpoint(0)
	m, ok := ep0.TryRecv()
	if !ok || m.Type != TNack || m.Orig != TWritePush || m.From != 1 {
		t.Fatalf("expected nack bounce at release, got %+v ok=%v", m, ok)
	}
}

func TestFaultFlapBurst(t *testing.T) {
	nw := New(2)
	defer nw.Close()
	if err := nw.InstallFaults(FaultPlan{Seed: 3, Flap: 1, FlapLen: 5}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		nw.Send(Message{From: 0, To: 1, Type: TReadReq})
	}
	st := nw.Stats()
	if st.DroppedFlap != 12 {
		t.Fatalf("Flap=1 should drop every send: %+v", st)
	}
}

func TestNackBounceOnCrashedDest(t *testing.T) {
	nw := New(2)
	defer nw.Close()
	if err := nw.Crash(1); err != nil {
		t.Fatal(err)
	}
	nw.Send(Message{From: 0, To: 1, Type: TReadReq, Seq: 77, Attempt: 2})
	ep0, _ := nw.Endpoint(0)
	m, ok := ep0.TryRecv()
	if !ok {
		t.Fatal("no nack delivered to sender")
	}
	if m.Type != TNack || m.Orig != TReadReq || m.Seq != 77 || m.From != 1 || m.Attempt != 2 {
		t.Fatalf("bad nack: %+v", m)
	}
	st := nw.Stats()
	if st.Nacks != 1 {
		t.Fatalf("Nacks = %d, want 1", st.Nacks)
	}
	// The nack itself is synthetic: only the original send was billed
	// (as a retransmission, since it carried Attempt=2).
	if st.RetransControl != 1 || st.ControlSent != 0 || st.PerType[TNack] != 0 {
		t.Fatalf("nack must be unbilled: %+v", st)
	}
}

func TestNoNackWhenSenderCrashed(t *testing.T) {
	nw := New(3)
	defer nw.Close()
	if err := nw.Crash(0); err != nil {
		t.Fatal(err)
	}
	nw.Send(Message{From: 0, To: 1, Type: TReadReq})
	if st := nw.Stats(); st.Nacks != 0 {
		t.Fatalf("crashed sender must not receive a nack: %+v", st)
	}
}

func TestCrashRestartPartitionValidateIDs(t *testing.T) {
	nw := New(3)
	defer nw.Close()
	if err := nw.Crash(9); err == nil {
		t.Fatal("Crash(9) on a 3-node network should error")
	}
	if nw.Crashed(9) {
		t.Fatal("invalid id must not be registered as crashed")
	}
	if err := nw.Restart(9); err == nil {
		t.Fatal("Restart(9) should error")
	}
	if err := nw.Partition(0, 9); err == nil {
		t.Fatal("Partition(0, 9) should error")
	}
	if err := nw.Heal(9, 0); err == nil {
		t.Fatal("Heal(9, 0) should error")
	}
	if err := nw.Crash(2); err != nil {
		t.Fatalf("valid crash errored: %v", err)
	}
	if err := nw.Restart(2); err != nil {
		t.Fatalf("valid restart errored: %v", err)
	}
	if err := nw.Partition(0, 1); err != nil {
		t.Fatalf("valid partition errored: %v", err)
	}
	if err := nw.Heal(0, 1); err != nil {
		t.Fatalf("valid heal errored: %v", err)
	}
}

func TestDropEmitsObsEvent(t *testing.T) {
	nw := New(2)
	defer nw.Close()
	sink := obs.NewMem()
	reg := obs.NewRegistry()
	nw.SetObs(&obs.Obs{Registry: reg, Sink: sink})
	if err := nw.Crash(1); err != nil {
		t.Fatal(err)
	}
	nw.Send(Message{From: 0, To: 1, Type: TWritePush, Seq: 5})
	drops := sink.Named("net.drop")
	if len(drops) != 1 {
		t.Fatalf("want 1 net.drop event, got %d", len(drops))
	}
	e := drops[0]
	if e.Int64At("from") != 0 || e.Int64At("to") != 1 {
		t.Fatalf("bad drop attrs: %+v", e)
	}
	if got := e.Get("reason"); got != "crashed-dest" {
		t.Fatalf("reason = %v, want crashed-dest", got)
	}
	if got := e.Get("type"); got != "write-push" {
		t.Fatalf("type = %v, want write-push", got)
	}
}

func TestRetransAndAckBilling(t *testing.T) {
	nw := New(2)
	defer nw.Close()
	nw.Send(Message{From: 0, To: 1, Type: TWritePush, Seq: 1})             // first transmission: data
	nw.Send(Message{From: 0, To: 1, Type: TWritePush, Seq: 1, Attempt: 1}) // retransmission
	nw.Send(Message{From: 1, To: 0, Type: TWriteAck, Seq: 1})              // reliability ack
	nw.Send(Message{From: 0, To: 1, Type: TReadReq, Seq: 2, Attempt: 3})   // control retransmission
	st := nw.Stats()
	if st.DataSent != 1 || st.ControlSent != 0 {
		t.Fatalf("paper counters polluted by reliability traffic: %+v", st)
	}
	if st.RetransData != 1 || st.RetransControl != 1 || st.AckControl != 1 {
		t.Fatalf("reliability counters wrong: %+v", st)
	}
	if st.PerType[TWritePush] != 2 || st.PerType[TWriteAck] != 1 || st.PerType[TReadReq] != 1 {
		t.Fatalf("per-type counts wrong: %+v", st.PerType)
	}
}

func TestFaultPlanValidate(t *testing.T) {
	bad := []FaultPlan{
		{Loss: -0.1}, {Loss: 1.5}, {Dup: 2}, {Delay: -1}, {Flap: 1.01},
		{DelayMax: -1}, {FlapLen: -2},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", p)
		}
		nw := New(2)
		if err := nw.InstallFaults(p); err == nil {
			t.Errorf("InstallFaults(%+v) should fail", p)
		}
		nw.Close()
	}
	if err := (FaultPlan{Seed: 1, Loss: 0.5, Dup: 1, Delay: 0.25, Flap: 0}).Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if (FaultPlan{}).Active() {
		t.Fatal("zero plan must be inert")
	}
	if !(FaultPlan{Loss: 0.01}).Active() {
		t.Fatal("lossy plan must be active")
	}
}
