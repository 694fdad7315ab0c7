// Security zone monitoring: a facilities team marks two restricted zones of
// an office floor and registers continuous range queries over them. The
// system cleanses the noisy RFID stream with the particle filter and raises
// an event whenever a badge's probability of being inside a zone crosses a
// threshold — the kind of probabilistic trigger raw RFID data is too noisy
// to drive directly. The example also contrasts the particle filter's answer
// with the symbolic baseline to show why the filter is worth its cost.
package main

import (
	"fmt"

	"repro"
)

func main() {
	plan := repro.DefaultOffice()
	dep := repro.MustDeployUniform(plan, repro.DefaultReaders, repro.DefaultActivationRange)
	sys := repro.MustNewSystem(plan, dep, repro.DefaultConfig())

	tc := repro.DefaultTraceConfig()
	tc.NumObjects = 30
	world := repro.MustNewSimulator(sys.Graph(), repro.NewSensor(dep), tc, 99)

	for i := 0; i < 100; i++ {
		t, raws := world.Step()
		sys.Ingest(t, raws)
	}

	zones := map[string]repro.Rect{
		"server-room-wing": repro.RectWH(55, 25, 14, 11), // north-east rooms
		"records-corridor": repro.RectWH(40, 11, 20, 2),  // east stretch of the south hallway
	}
	monitors := make(map[string]*repro.ContinuousRange, len(zones))
	for name, zone := range zones {
		monitors[name] = repro.NewContinuousRange(zone, 0.5)
	}

	fmt.Println("monitoring restricted zones (threshold P >= 0.5):")
	for round := 0; round < 8; round++ {
		for i := 0; i < 10; i++ {
			t, raws := world.Step()
			sys.Ingest(t, raws)
		}
		for _, name := range []string{"records-corridor", "server-room-wing"} {
			zone := zones[name]
			answer := sys.RangeQuery(zone)
			entered, left := monitors[name].Update(answer)
			for _, o := range entered {
				fmt.Printf("t=%4d  ALERT  badge o%d entered %s (P=%.2f, truly inside: %v)\n",
					sys.Now(), o, name, answer[o], contains(world.TrueRange(zone), o))
			}
			for _, o := range left {
				fmt.Printf("t=%4d  clear  badge o%d left %s\n", sys.Now(), o, name)
			}
		}
	}

	// Side-by-side with the symbolic baseline on the last snapshot.
	zone := zones["server-room-wing"]
	pf := sys.RangeQuery(zone)
	smv := repro.MustNewBaseline(sys).RangeQuery(zone)
	truth := repro.ResultSet{}
	for _, o := range world.TrueRange(zone) {
		truth[o] = 1
	}
	fmt.Printf("\nfinal snapshot of %v:\n", zone)
	fmt.Printf("  truth: %v\n", world.TrueRange(zone))
	fmt.Printf("  particle filter KL = %.3f, symbolic model KL = %.3f (lower is better)\n",
		repro.KLDivergence(truth, pf), repro.KLDivergence(truth, smv))
}

func contains(ids []repro.ObjectID, o repro.ObjectID) bool {
	for _, id := range ids {
		if id == o {
			return true
		}
	}
	return false
}
