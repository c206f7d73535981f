package served

import (
	"testing"
)

// TestFinishedJobReleasesHandle: once a job is done the server drops its
// scan handle, so a finished job pins neither scanner nor result store,
// while Status keeps reporting the final counts and a late rate grant
// stays harmless.
func TestFinishedJobReleasesHandle(t *testing.T) {
	srv, _ := newTestServer(t, Config{GlobalPPS: 1_000_000})
	specs := map[string]JobSpec{
		"scan4":    {Blocks: 256, Seed: 11, PPS: 200_000},
		"scan6":    {Family: FamilyV6, Prefixes: 64, TargetsPerPrefix: 4, Seed: 3, PPS: 200_000},
		"cluster4": {Type: "cluster", Workers: 2, Blocks: 256, Seed: 11, Lockstep: true, PPS: 200_000},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			id, apiErr := srv.Submit(spec)
			if apiErr != nil {
				t.Fatal(apiErr)
			}
			j := srv.JobForTest(id)
			j.Wait()
			st, apiErr := srv.Status(id)
			if apiErr != nil {
				t.Fatal(apiErr)
			}
			if st.State != StateDone {
				t.Fatalf("job ended %q (%s)", st.State, st.Error)
			}
			if j.liveHandle() != nil {
				t.Fatal("finished job still holds its scan handle")
			}
			if st.Probes == 0 || st.Interfaces == 0 {
				t.Fatalf("finished job reports no discovery: %+v", st)
			}
			j.applyRate(1_234)
			again, _ := srv.Status(id)
			if again.Probes != st.Probes || again.Interfaces != st.Interfaces || again.State != StateDone {
				t.Fatalf("late rate grant changed a finished job: %+v, was %+v", again, st)
			}
		})
	}
}
