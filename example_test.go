package powerfail_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"powerfail"
)

// Inject 25 power faults into the simulated SSD "A" while a random-write
// workload runs, and print the failure report — the minimal use of the
// public API. For sweeps of many experiments see NewCampaign and
// cmd/sweep.
func ExampleRun() {
	report, err := powerfail.Run(
		powerfail.Options{
			Seed:    42,
			Profile: powerfail.ProfileA(),
		},
		powerfail.Experiment{
			Name:             "quickstart",
			Workload:         powerfail.DefaultWorkload(),
			Faults:           25,
			RequestsPerFault: 16,
		},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report)
	fmt.Printf("\nThe drive acknowledged %d writes and still lost %d of them\n",
		report.Writes, report.DataLosses())
	fmt.Printf("(%d outright data failures, %d false write-acknowledges).\n",
		report.DataFailures(), report.FWA())
	// Output:
	// experiment "quickstart" on SSD A
	//   workload: random-write wss=16GB size=4-1024KB read%=0 random
	//   sim time: 37.235s (active 666.54ms)
	//   requests: 1165 (0 reads, 1165 writes; 1140 completed, 25 errored, 0 not issued)
	//   faults:   25 injected (25 cuts, 25 restores)
	//   failures: 34 data failures, 63 FWA, 25 IO errors (0 late corruptions)
	//   data loss per fault: 3.88
	//   iops: responded 671
	//
	// The drive acknowledged 1165 writes and still lost 97 of them
	// (34 outright data failures, 63 false write-acknowledges).
}

// Plot the PSU's output voltage after a cut (the paper's Fig. 4) as
// ASCII, with and without an SSD attached, and mark the 4.5 V brownout
// crossing the drive experiences roughly 40 ms after the cut.
func ExampleDischargeCurve() {
	fmt.Println("PSU 5 V rail during the discharge phase (Fig. 4)")
	for _, withSSD := range []bool{false, true} {
		label := "(a) no device attached"
		if withSSD {
			label = "(b) one SSD attached"
		}
		curve, _ := powerfail.DischargeCurve(withSSD, 100*powerfail.Millisecond, 1500*powerfail.Millisecond)
		fmt.Printf("\n%s\n", label)
		for _, pt := range curve {
			bar := strings.Repeat("#", int(pt.V*12))
			fmt.Printf("%6.0f ms | %-62s %.2f V\n", pt.T.Millis(), bar, pt.V)
		}
	}
	_, brownout := powerfail.DischargeCurve(true, powerfail.Millisecond, 100*powerfail.Millisecond)
	fmt.Printf("\nWith the SSD attached the rail crosses 4.5 V (host link loss) %.0f ms after the cut;\n", brownout.Millis())
	fmt.Println("the paper measures ~40 ms, ~900 ms to full discharge loaded, ~1400 ms unloaded.")
	// Output:
	// PSU 5 V rail during the discharge phase (Fig. 4)
	//
	// (a) no device attached
	//      0 ms | ############################################################   5.00 V
	//    100 ms | ##################################################             4.17 V
	//    200 ms | #########################################                      3.48 V
	//    300 ms | ##################################                             2.91 V
	//    400 ms | #############################                                  2.43 V
	//    500 ms | ########################                                       2.03 V
	//    600 ms | ####################                                           1.69 V
	//    700 ms | ################                                               1.41 V
	//    800 ms | ##############                                                 1.18 V
	//    900 ms | ###########                                                    0.99 V
	//   1000 ms | #########                                                      0.82 V
	//   1100 ms | ########                                                       0.69 V
	//   1200 ms | ######                                                         0.57 V
	//   1300 ms | #####                                                          0.48 V
	//   1400 ms | ####                                                           0.40 V
	//   1500 ms | ####                                                           0.33 V
	//
	// (b) one SSD attached
	//      0 ms | ############################################################   5.00 V
	//    100 ms | ##############################################                 3.84 V
	//    200 ms | ###################################                            2.95 V
	//    300 ms | ###########################                                    2.27 V
	//    400 ms | ####################                                           1.75 V
	//    500 ms | ################                                               1.34 V
	//    600 ms | ############                                                   1.03 V
	//    700 ms | #########                                                      0.79 V
	//    800 ms | #######                                                        0.61 V
	//    900 ms | #####                                                          0.47 V
	//   1000 ms | ####                                                           0.36 V
	//   1100 ms | ###                                                            0.28 V
	//   1200 ms | ##                                                             0.21 V
	//   1300 ms | #                                                              0.16 V
	//   1400 ms | #                                                              0.13 V
	//   1500 ms | #                                                              0.10 V
	//
	// With the SSD attached the rail crosses 4.5 V (host link loss) 41 ms after the cut;
	// the paper measures ~40 ms, ~900 ms to full discharge loaded, ~1400 ms unloaded.
}

// Contrast three builds of the same drive under identical fault
// schedules: stock (volatile write cache), cache disabled, and with a
// supercapacitor (power-loss protection). Hand-built catalog items run as
// one campaign; every variant keeps the same seed, so all three drives
// see the same fault schedule. The cache is a major but not the only
// source of loss, and PLP hardware eliminates the failure classes.
func ExampleNewCampaign() {
	type variant struct {
		name string
		prof powerfail.SSDProfile
	}
	base := powerfail.ProfileA()
	variants := []variant{
		{"stock (write cache on)", base},
		{"internal cache disabled", base.WithCacheDisabled()},
		{"supercap (PLP)", base.WithSuperCap()},
	}

	var items []powerfail.CatalogItem
	for i, v := range variants {
		items = append(items, powerfail.CatalogItem{
			Figure: "plp",
			Label:  v.name,
			X:      float64(i),
			Opts:   powerfail.Options{Seed: 2024, Profile: v.prof},
			Spec: powerfail.Experiment{
				Name:             v.name,
				Workload:         powerfail.DefaultWorkload(),
				Faults:           40,
				RequestsPerFault: 16,
			},
		})
	}

	out, err := powerfail.NewCampaign(items,
		powerfail.WithParallelism(len(items)),
		powerfail.WithFailFast(),
	).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Drive build vs data loss: 40 faults each, identical workload")
	fmt.Printf("%-26s %-14s %-6s %-10s %s\n", "variant", "data failures", "FWA", "IO errors", "loss/fault")
	for _, res := range out.Results {
		rep := res.Report
		fmt.Printf("%-26s %-14d %-6d %-10d %.2f\n",
			res.Item.Label, rep.DataFailures(), rep.FWA(), rep.IOErrors(), rep.DataLossPerFault)
	}
	// Output:
	// Drive build vs data loss: 40 faults each, identical workload
	// variant                    data failures  FWA    IO errors  loss/fault
	// stock (write cache on)     63             111    40         4.35
	// internal cache disabled    5              0      40         0.12
	// supercap (PLP)             0              0      40         0.00
}

// Run the same power-fault schedule against the simulated SSD and a
// write-through hard disk. The HDD acknowledges only durable data, so it
// loses nothing it ACKed (at most it tears the single sector under the
// head, which is never acknowledged); the SSD loses acknowledged writes
// from its volatile cache and mapping table.
func ExampleHDDTopology() {
	spec := powerfail.Experiment{
		Name: "hddcompare",
		Workload: powerfail.Workload{
			Name:     "rand-write-4-64k",
			WSSBytes: 1 << 30,
			MinSize:  4 << 10,
			MaxSize:  64 << 10,
		},
		Faults:           12,
		RequestsPerFault: 10,
	}

	ssdProf := powerfail.ProfileA()
	ssdProf.CapacityGB = 8
	ssdRep, err := powerfail.Run(powerfail.Options{Seed: 11, Profile: ssdProf}, spec)
	if err != nil {
		log.Fatal(err)
	}
	hddRep, err := powerfail.Run(powerfail.Options{
		Seed:     11,
		Topology: powerfail.HDDTopology(powerfail.DefaultHDD()),
	}, spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Identical fault schedules, 4-64 KiB random writes:")
	fmt.Printf("%-22s %-8s %-18s %s\n", "drive", "acked", "acked-then-lost", "io errors")
	for _, r := range []struct {
		name string
		rep  *powerfail.Report
	}{
		{"SSD A (write cache)", ssdRep},
		{"HDD (write-through)", hddRep},
	} {
		fmt.Printf("%-22s %-8d %-18d %d\n",
			r.name, r.rep.Completed, r.rep.DataLosses(), r.rep.IOErrors())
	}
	fmt.Printf("\nHDD mechanics: %d torn sectors (in-flight at the cut, never ACKed), %d spin-ups\n",
		hddRep.HDDStats.TornSectors, hddRep.HDDStats.Recoveries)
	// Output:
	// Identical fault schedules, 4-64 KiB random writes:
	// drive                  acked    acked-then-lost    io errors
	// SSD A (write cache)    1444     228                12
	// HDD (write-through)    139      0                  12
	//
	// HDD mechanics: 0 torn sectors (in-flight at the cut, never ACKed), 12 spin-ups
}

// Build three identical fleets — RAID-5-like groups spread over a
// room → rack → enclosure → PSU fault-domain tree — and cut power at a
// different tier of the tree in each run, on the same seed. A PSU cut
// downs one bay per group (rack-local placement keeps group members on
// distinct PSUs), so spares absorb it; a rack cut downs whole groups; a
// room cut downs everything. Availability nines fall as the cut level
// climbs the tree.
func ExampleDefaultFleetConfig() {
	levels := []struct {
		label string
		level powerfail.FleetLevel
	}{
		{"psu", powerfail.FleetPSU},
		{"rack", powerfail.FleetRack},
		{"room", powerfail.FleetRoom},
	}

	var items []powerfail.CatalogItem
	for i, lv := range levels {
		cfg := powerfail.DefaultFleetConfig()
		cfg.Arrays = 8
		cfg.Spares = 4
		cfg.Member.Pages = 4096
		cfg.Faults.Level = lv.level
		cfg.Faults.Count = 4
		cfg.Faults.Outage = 3 * powerfail.Second
		items = append(items, powerfail.CatalogItem{
			Figure: "fleet",
			Label:  lv.label,
			X:      float64(i),
			// The seed is shared: only the cut level differs between runs.
			Opts: powerfail.Options{Seed: 42, Fleet: &cfg},
			Spec: powerfail.Experiment{Name: "fleet-" + lv.label},
		})
	}

	out, err := powerfail.NewCampaign(items, powerfail.WithParallelism(3)).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Same fleet, same seed, cuts aimed at different tree levels:")
	fmt.Printf("%-6s %-6s %-9s %-11s %-9s %-12s %-9s %-9s %s\n",
		"cut", "cuts", "declared", "spare-take", "rebuilds", "rebuild-MiB", "avail-9s", "durab-9s", "losses")
	for _, res := range out.Results {
		s := res.Report.Fleet
		fmt.Printf("%-6s %-6d %-9d %-11d %-9s %-12.1f %-9.2f %-9.2f %d\n",
			res.Item.Label, s.Cuts, s.DeclaredFailures, s.SpareTakes,
			fmt.Sprintf("%d/%d", s.RebuildCompleted, s.RebuildWindows),
			float64(s.RebuildReadBytes+s.RebuildWriteBytes)/(1<<20),
			s.AvailabilityNines, s.DurabilityNines, s.LossEvents)
	}
	// Output:
	// Same fleet, same seed, cuts aimed at different tree levels:
	// cut    cuts   declared  spare-take  rebuilds  rebuild-MiB  avail-9s  durab-9s  losses
	// psu    4      18        12          18/18     1056.0       1.90      1.20      1
	// rack   4      44        4           44/44     1088.0       0.53      0.00      32
	// room   4      64        0           64/64     1792.0       0.37      0.00      48
}
