// Command athena-serve runs the Athena inference server: clients
// upload their public evaluation keys once (sessions are
// content-addressed and survive reconnects), then stream encrypted
// inference requests; the server coalesces concurrent requests into
// shared functional-bootstrapping batches and answers with encrypted
// logits it cannot read.
//
//	athena-serve                         # demo model, test parameters
//	athena-serve -addr :7700 -admin :7701
//	athena-serve -preset medium -model model.json
//
// SIGINT/SIGTERM drains gracefully: queued and in-flight requests
// complete, new ones are rejected with DRAINING, then the process
// exits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"athena/internal/cluster"
	"athena/internal/core"
	"athena/internal/qnn"
	"athena/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7700", "inference listen address")
	admin := flag.String("admin", "", "admin HTTP listen address serving GET /metrics and POST /cluster (empty = disabled)")
	name := flag.String("name", "", "node name on the cluster ring (empty = standalone; required for ownership-aware eviction)")
	rate := flag.Float64("rate", 0, "per-session admission rate in requests/sec; exhausted sessions get BUSY (0 = unlimited)")
	burst := flag.Int("burst", 0, "per-session token-bucket burst (0 = 2x max-batch)")
	preset := flag.String("preset", "test", "engine parameters: test (N=128,t=257) or medium (N=2048,t=65537)")
	modelPath := flag.String("model", "", "serve a saved model (JSON from QNetwork.WriteJSON) instead of the built-in wire-demo")
	maxBatch := flag.Int("max-batch", 16, "flush a batch at this many requests")
	maxWait := flag.Duration("max-wait", 25*time.Millisecond, "flush a non-full batch at most this long after its first request (sooner once a batch of its model has been timed: after that evaluation time); a request whose session has shown no company is dispatched at once")
	queue := flag.Int("queue", 64, "admission queue bound; beyond it requests get BUSY")
	executors := flag.Int("executors", 2, "concurrent batch evaluators")
	memCap := flag.Int64("mem-cap", 0, "session key-material cap in bytes (0 = 1 GiB)")
	dataDir := flag.String("data-dir", "", "durable session store directory: uploads survive restarts, evicted sessions reload from disk (empty = memory-only)")
	diskCap := flag.Int64("disk-cap", 0, "on-disk session store cap in bytes; unowned, then coldest sessions are evicted under pressure (0 = unbounded)")
	flag.Parse()

	params := core.TestParams()
	switch *preset {
	case "test":
	case "medium":
		params = core.MediumParams()
	default:
		log.Fatalf("unknown preset %q", *preset)
	}

	models := map[string]*qnn.QNetwork{}
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		q, err := qnn.ReadJSONNetwork(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		models[q.Name] = q
		fmt.Printf("serving model %q (%dx%dx%d input)\n", q.Name, q.InC, q.InH, q.InW)
	} else {
		demo := serve.DemoNet()
		models[demo.Name] = demo
		fmt.Printf("serving built-in model %q\n", demo.Name)
	}

	srv, err := serve.NewServer(serve.Config{
		Params:       params,
		Models:       models,
		MaxBatch:     *maxBatch,
		MaxWait:      *maxWait,
		MaxQueue:     *queue,
		Executors:    *executors,
		MemCapBytes:  *memCap,
		DataDir:      *dataDir,
		DiskCapBytes: *diskCap,
		RatePerSec:   *rate,
		Burst:        *burst,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *dataDir != "" {
		rec := srv.Recovery()
		fmt.Printf("session store %s: recovered %d sessions, removed %d partial uploads, quarantined %d\n",
			*dataDir, rec.Entries, rec.PartialRemoved, rec.Quarantined)
	}

	if *admin != "" {
		mux := http.NewServeMux()
		mux.Handle("/", srv.AdminHandler())
		// POST /cluster: the control plane pushes membership snapshots
		// here after join/drain/leave. The node derives its ownership
		// predicate from the ring and hands it to both eviction tiers.
		mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				w.Header().Set("Allow", http.MethodPost)
				http.Error(w, "membership push is POST", http.StatusMethodNotAllowed)
				return
			}
			body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			var doc cluster.MembershipDoc
			if err := json.Unmarshal(body, &doc); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			srv.SetSessionOwnership(doc.OwnedFunc(*name))
			fmt.Printf("cluster membership epoch %d applied (%d nodes)\n", doc.Epoch, len(doc.Nodes))
			w.WriteHeader(http.StatusNoContent)
		})
		go func() {
			fmt.Printf("admin /metrics on http://%s/metrics\n", *admin)
			if err := http.ListenAndServe(*admin, mux); err != nil {
				log.Printf("admin listener: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	//lint:allow goleak process-lifetime signal watcher; it dies with the process
	go func() {
		s := <-sig
		fmt.Printf("\n%v: draining (in-flight requests will complete)...\n", s)
		srv.Shutdown()
	}()

	fmt.Printf("athena-serve listening on %s (preset %s, max-batch %d, max-wait %v, queue %d)\n",
		*addr, *preset, *maxBatch, *maxWait, *queue)
	if err := srv.ListenAndServe(*addr); err != nil {
		log.Fatal(err)
	}
	snap := srv.Metrics()
	fmt.Printf("drained: %d requests completed in %d batches (mean batch %.2f), %d sessions opened\n",
		snap.Requests.Completed, snap.Batches, snap.MeanBatchSize, snap.Sessions.Opened)
}
