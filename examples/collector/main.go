// Collector demonstrates the operational path the paper's measurement
// setup used: IXP edge switches export sFlow datagrams over UDP, a
// collector receives and persists them (here: anonymized with a
// prefix-preserving function, like the shared dataset), and the
// analysis runs over what the collector wrote.
//
//	go run ./examples/collector
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ixplens/internal/analysis"
	"ixplens/internal/anonymize"
	"ixplens/internal/capture"
	"ixplens/internal/netmodel"
	"ixplens/internal/pipeline"
	"ixplens/internal/sflow"
	"ixplens/internal/traffic"
)

func main() {
	cfg := netmodel.Tiny()
	opts := traffic.Options{SamplesPerWeek: 10_000, SamplingRate: 16384, SnapLen: 128}
	env, err := pipeline.NewEnv(cfg, opts)
	if err != nil {
		log.Fatal(err)
	}

	// --- Collector side: bind a UDP socket, write an anonymized capture.
	recv, err := sflow.NewReceiver("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "ixplens-collector")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "week-45.sflow")
	out, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	// The v2 block container checksums every block and indexes the file
	// for parallel decoding at analysis time.
	sw, err := sflow.NewBlockWriter(out, false)
	if err != nil {
		log.Fatal(err)
	}
	anon := anonymize.New(0xc011ec7)
	sink := anon.Datagrams(sw.WriteDatagram)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := recv.Run(sink); err != nil {
			log.Println("collector:", err)
		}
	}()
	fmt.Println("collector listening on", recv.Addr())

	// --- Agent side: generate week 45 and export it over the socket.
	exp, err := sflow.NewExporter(recv.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := env.EachDatagram(context.Background(), 45, exp.Send); err != nil {
		log.Fatal(err)
	}
	exp.Close()

	// Drain and close. Loopback delivery is near-instant, but UDP may
	// drop under pressure, so bound the wait.
	deadline := time.Now().Add(3 * time.Second)
	for {
		received, _ := recv.Stats()
		if int(received) >= exp.Count() || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	recv.Close()
	wg.Wait()
	if err := sw.Close(); err != nil {
		log.Fatal(err)
	}
	if err := out.Close(); err != nil {
		log.Fatal(err)
	}
	received, malformed := recv.Stats()
	fmt.Printf("exported %d datagrams, collected %d (%d malformed)\n",
		exp.Count(), received, malformed)

	// --- Analysis side: mine the anonymized capture with the same
	// one-pass analysis ixpmine runs, narrowed to server identification.
	env.Analyzers, err = analysis.Select(analysis.NameWebserver)
	if err != nil {
		log.Fatal(err)
	}
	snap, err := capture.AnalyzeWeekSnapshot(context.Background(), env, path, 45)
	if err != nil {
		log.Fatal(err)
	}
	counts, res := snap.Counts, snap.Result
	fmt.Printf("analysis over anonymized capture: %d samples, %.2f%% peering, %d server IPs identified\n",
		counts.Total, 100*counts.PeeringShare(), len(res.Servers))
	fmt.Println("(addresses are anonymized; prefix-level aggregation still works, RIB lookups intentionally do not)")
}
