// Command athena-keygen reports, and at the smaller presets writes, the
// evaluation keys a client/server deployment exchanges: the bundle a
// client uploads once (core.Engine.WriteEvalKeys) and a server holds per
// session.
//
//	athena-keygen -preset test -out /tmp/keys
//	athena-keygen -preset full -dry-run     # keys by level, from their shapes
//
// The dry run counts every key from its shape, per level, with its bytes
// on the wire and held once expanded; it generates nothing, so it runs at
// -preset full. Writing keys builds an engine, and a FullParams engine's
// plan does not fit in memory, so -preset full is a dry run only.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"athena/internal/core"
)

func main() {
	preset := flag.String("preset", "test", "parameter preset: test, medium, full")
	out := flag.String("out", "", "output directory (required unless -dry-run)")
	dryRun := flag.Bool("dry-run", false, "print the keys by level and their sizes without generating any")
	seed := flag.Uint64("seed", 1, "key generation seed")
	flag.Parse()

	var p core.Params
	switch *preset {
	case "test":
		p = core.TestParams()
	case "medium":
		p = core.MediumParams()
	case "full":
		p = core.FullParams()
	default:
		log.Fatalf("unknown preset %q", *preset)
	}
	p.Seed = *seed
	fbsL, postL := p.Levels()
	fmt.Printf("parameters: N=%d, %d limbs of %d bits, t=%d, LWE n=%d; FBS level %d, post level %d\n",
		1<<p.LogN, p.QiNum, p.QiBits, p.T, p.LWEDim, fbsL, postL)
	fmt.Printf("ciphertext size: %s\n", human(int64(p.CiphertextBytes())))

	if *dryRun {
		if err := printShapes(p); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *preset == "full" {
		log.Fatal("-preset full writes no keys: an engine at FullParams compiles an S2C plan of ≈ 17 GB (ROADMAP item 22); use -dry-run")
	}
	if *out == "" {
		log.Fatal("-out is required (or use -dry-run)")
	}
	if err := writeBundle(p, *out); err != nil {
		log.Fatal(err)
	}
}

// printShapes prints the evaluation keys of an engine at p by kind and
// level, counted from their shapes.
func printShapes(p core.Params) error {
	shapes, wire, held, err := core.EvalKeyShapes(p)
	if err != nil {
		return err
	}
	fmt.Println("evaluation keys (from their shapes):")
	for _, s := range shapes {
		level := fmt.Sprintf("level %d", s.Level)
		if s.Level == 0 {
			level = "at qMid"
		}
		fmt.Printf("  %4d × %-20s %-9s %10s on the wire, %10s held\n", s.Count, s.Kind, level,
			human(int64(s.Count)*s.Wire), human(int64(s.Count)*s.Held))
	}
	fmt.Printf("  bundle: %s on the wire, %s held\n", human(wire), human(held))
	return nil
}

// writeBundle generates an engine's keys at p and writes the bundle a
// client uploads to dir/eval.keys. The keys are a function of p.Seed: a
// client at the same seed holds the secret key they were made under.
func writeBundle(p core.Params, dir string) error {
	fmt.Println("generating keys...")
	e, err := core.NewEngine(p)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "eval.keys")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = e.WriteEvalKeys(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	held, err := e.EvalKeysSize()
	if err != nil {
		return err
	}
	fmt.Printf("  %-10s %10s on disk, %10s held by a server\n", "eval.keys", human(st.Size()), human(held))
	fmt.Println("done; a server loads it with core.NewEvaluationEngineFromReader")
	return nil
}

func human(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}
