// clientserver: the Athena serving stack over a real TCP socket.
//
// A serve.Server hosts the demo model; the client generates its own
// keys, uploads only the public evaluation material (the secret key
// never leaves the client), and streams several encrypted inference
// requests concurrently. The server's dynamic batcher coalesces them
// into shared functional-bootstrapping rounds — watch the mean batch
// size in the final stats line. The session is new, so the burst's
// first request is evaluated on arrival, alone; the rest arrive while
// it is unanswered and share the next round. The bytes on the wire are the
// repository's real formats: core.WriteEvalKeys for the session open,
// core.WriteEncryptedInput / WriteEncryptedLogits inside each frame.
//
//	go run ./examples/clientserver
package main

import (
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"athena/internal/core"
	"athena/internal/qnn"
	"athena/internal/serve"
	"athena/internal/serve/client"
)

func main() {
	params := core.TestParams()
	model := serve.DemoNet()

	fmt.Println("== Athena inference service over TCP ==")
	srv, err := serve.NewServer(serve.Config{
		Params:  params,
		Models:  map[string]*qnn.QNetwork{model.Name: model},
		MaxWait: 200 * time.Millisecond, // generous: let the rest of the burst coalesce
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	//lint:allow goleak the accept loop exits when Shutdown closes the listener at process end
	go srv.Serve(ln)
	fmt.Println("server listening on", ln.Addr())

	// The client generates its own keys and uploads only the public
	// evaluation bundle; the server never sees sk.
	fmt.Println("client: generating keys (BFV + LWE keyswitch + packing)...")
	eng, err := core.NewEngine(params)
	if err != nil {
		log.Fatal(err)
	}
	c, err := client.Dial(ln.Addr().String(), eng, client.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	id, err := c.OpenSession()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client: session %s (content-addressed: same keys → same session)\n", id)

	// Fire a concurrent burst; the batcher folds it into few shared-FBS
	// evaluation rounds.
	const burst = 4
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := serve.DemoInput(uint64(9 + i))
			logits, err := c.Infer(model, x, 0)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("request %d: decrypted logits %v  (plaintext %v)\n",
				i, logits, model.ForwardInt(x).Data)
		}(i)
	}
	wg.Wait()

	snap, err := c.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server: %d requests in %d batches — mean batch size %.2f, %d FBS calls\n",
		snap.Requests.Completed, snap.Batches, snap.MeanBatchSize, snap.Ops.FBSCalls)
	srv.Shutdown()
}
