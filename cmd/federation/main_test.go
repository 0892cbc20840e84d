package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestMain lets a test re-run the command itself: with FEDERATION_ARGS
// set, the test binary is the federation command with those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("FEDERATION_ARGS"); ok {
		os.Args = append([]string{"federation"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// flagSpec builds the spec a command line describes.
func flagSpec(t *testing.T, args string) *scenario.Spec {
	t.Helper()
	o, err := parse(strings.Fields(args))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := o.spec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestOneGridFlagWorlds pins the shared-grid campaign worlds: one
// default-preset grid with local links, run under the pinned policy, to
// per-tenant makespans and adaptation counts recorded on the dedicated
// single-grid campaign command this one replaced.
func TestOneGridFlagWorlds(t *testing.T) {
	type tenant struct {
		makespan time.Duration
		adapts   int
	}
	for _, tc := range []struct {
		args    string
		span    time.Duration
		jobs    int
		tenants []tenant
	}{
		{"-tenants 8", 9759210283807, 400, []tenant{
			{8312574556498, 0}, {3991555612453, 0}, {8912218730348, 0}, {4841425312237, 0},
			{7847150367914, 0}, {5261102350509, 0}, {9399210283807, 0}, {4221600843294, 0},
		}},
		{"-fifo -tenants 4 -items 5", 3817062267733, 53, []tenant{
			{1187887874590, 0}, {716735497522, 0}, {3697062267733, 0}, {2490761170753, 0},
		}},
		{"-adapt 10m -tenants 4 -items 5 -services 2", 1551442491895, 27, []tenant{
			{784636020991, 1}, {708967406835, 0}, {1328400301208, 1}, {1371442491895, 2},
		}},
	} {
		t.Run(tc.args, func(t *testing.T) {
			spec := flagSpec(t, "-grids 1 -wan 0 "+tc.args)
			spec.Broker.Policy = "pinned:0"
			w, err := scenario.Compile(sim.NewEngine(), spec)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := w.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Makespan != tc.span || rep.Global.Jobs != tc.jobs {
				t.Errorf("span %d with %d jobs, want %d with %d", rep.Makespan, rep.Global.Jobs, tc.span, tc.jobs)
			}
			if len(rep.Tenants) != len(tc.tenants) {
				t.Fatalf("%d tenants, want %d", len(rep.Tenants), len(tc.tenants))
			}
			for i, want := range tc.tenants {
				tr := rep.Tenants[i]
				if tr.Err != nil || tr.Makespan != want.makespan || len(tr.Adaptations) != want.adapts {
					t.Errorf("%s: makespan %d with %d adaptations (err %v), want %d with %d",
						tr.Name, tr.Makespan, len(tr.Adaptations), tr.Err, want.makespan, want.adapts)
				}
			}
		})
	}
}

// TestFifoAndAdaptFlags: -fifo reaches every member grid and -adapt arms
// the group's feedback loop capped at the per-tenant item count.
func TestFifoAndAdaptFlags(t *testing.T) {
	spec := flagSpec(t, "-grids 3 -fifo -adapt 5m -items 7")
	for _, g := range spec.Grids {
		if !g.StrictFIFO {
			t.Errorf("grid %s keeps the fair-share gate under -fifo", g.Name)
		}
	}
	a := spec.Tenants[0].Adapt
	if a == nil || a.Interval.D() != 5*time.Minute || a.MaxBatch != 7 {
		t.Fatalf("adapt = %+v, want a 5m interval capped at batch 7", a)
	}
	if flagSpec(t, "").Tenants[0].Adapt != nil {
		t.Fatal("adaptation armed without -adapt")
	}
}

// TestRejectedInputs: each bad command line exits 2 with a message on
// stderr before printing anything on stdout.
func TestRejectedInputs(t *testing.T) {
	const sc = "-scenario ../../scenarios/clean-baseline.json "
	for _, tc := range []struct{ args, msg string }{
		{"-grids 0", "-grids must be positive"},
		{"-grids -1", "-grids must be positive"},
		{"-tenants 0", "-tenants must be positive"},
		{"-seed 0", "-seed must be positive"},
		{"-wan -3", "-wan must not be negative"},
		{"-locality -wans 0.5,-1", "-wans: negative bandwidth"},
		{"-locality -skews 0,2", "-skews: 2 outside [0, 1]"},
		{"-locality -skews -0.5", "-skews: -0.5 outside [0, 1]"},
		{"-locality -skews x", "-skews:"},
		{"-adapt -1m", "-adapt must not be negative"},
		{"-outage grid01", "-outage:"},
		{"-policies ranked,bogus", "bogus"},
		{sc + "-fifo", "-fifo cannot override a scenario"},
		{sc + "-adapt 10m", "-adapt cannot override a scenario"},
		{sc + "-grids 2", "-grids cannot override a scenario"},
		{sc + "-policies ranked,rr", "takes exactly one name"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "FEDERATION_ARGS="+tc.args)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit %v, want status 2 (stderr %q)", err, stderr.String())
			}
			if stdout.Len() > 0 {
				t.Errorf("printed %q before rejecting", stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.msg) {
				t.Errorf("stderr %q lacks %q", stderr.String(), tc.msg)
			}
		})
	}
}
