package chaos

import (
	"testing"

	"objalloc/internal/diskfault"
	"objalloc/internal/netsim"
)

// FuzzParseDiskFaults throws arbitrary strings at the -disk-faults plan
// decoder (diskfault.ParsePlan): it must never panic, and every accepted
// plan must validate and survive a format→parse round trip (FormatPlan
// emits the seed, so the round trip is exact).
func FuzzParseDiskFaults(f *testing.F) {
	f.Add("")
	f.Add("writeerr=0.01")
	f.Add("writeerr=0.01,shortwrite=0.005,syncerr=0.01,enospc=0.002,enospclen=3,seed=7")
	f.Add("stall=0.1,stallmax=2ms")
	f.Add("writeerrat=3,shortat=1,syncerrat=2,enospcat=4,persistafter=9")
	f.Add(" writeerr = 0.5 , seed = 42 ")
	f.Add("writeerr=NaN")
	f.Add("enospclen=9999999999999999999")
	f.Add("stallmax=forever")
	f.Fuzz(func(t *testing.T, s string) {
		plan, err := diskfault.ParsePlan(s)
		if err != nil {
			return
		}
		if verr := plan.Validate(); verr != nil {
			t.Fatalf("accepted %q but plan invalid: %v", s, verr)
		}
		back, err := diskfault.ParsePlan(diskfault.FormatPlan(plan))
		if err != nil {
			t.Fatalf("formatted form of %q rejected: %v", s, err)
		}
		if back != plan {
			t.Fatalf("%q: round trip %+v -> %+v", s, plan, back)
		}
	})
}

// FuzzParseFaults throws arbitrary strings at the fault-schedule decoder:
// it must never panic, and every accepted plan must validate and survive a
// format→parse round trip.
func FuzzParseFaults(f *testing.F) {
	f.Add("")
	f.Add("loss=0.1")
	f.Add("loss=0.15,dup=0.1,delay=0.2,delaymax=4,flap=0.01,flaplen=3")
	f.Add("seed=42,loss=1")
	f.Add("loss=0.1,loss=0.2")
	f.Add(" loss = 0.5 , dup = 0 ")
	f.Add("loss=NaN")
	f.Add("delaymax=9999999999999999999")
	f.Fuzz(func(t *testing.T, s string) {
		plan, err := netsim.ParseFaults(s)
		if err != nil {
			return
		}
		if verr := plan.Validate(); verr != nil {
			t.Fatalf("accepted %q but plan invalid: %v", s, verr)
		}
		back, err := netsim.ParseFaults(netsim.FormatFaults(plan))
		if err != nil {
			t.Fatalf("formatted form of %q rejected: %v", s, err)
		}
		back.Seed = plan.Seed // the seed is deliberately not formatted
		if back != plan {
			t.Fatalf("%q: round trip %+v -> %+v", s, plan, back)
		}
	})
}
