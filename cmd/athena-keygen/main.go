// Command athena-keygen generates and serializes a complete Athena key
// set (secret key, public key, relinearization and rotation keys) for a
// chosen parameter preset, reporting the on-disk sizes — the material a
// client/server deployment would exchange.
//
//	athena-keygen -preset test -out /tmp/keys
//	athena-keygen -preset full -dry-run     # sizes only, no key material
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"athena/internal/bfv"
	"athena/internal/core"
	"athena/internal/ring"
)

func main() {
	preset := flag.String("preset", "test", "parameter preset: test, medium, full")
	out := flag.String("out", "", "output directory (required unless -dry-run)")
	dryRun := flag.Bool("dry-run", false, "print sizes without writing keys")
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

	bp, err := p.BFVParameters()
	if err != nil {
		log.Fatal(err)
	}
	ctx, err := bfv.NewContext(bp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parameters: N=%d logQ=%d t=%d (LWE n=%d)\n",
		ctx.N, ctx.LogQ(), p.T, p.LWEDim)
	fmt.Printf("ciphertext size: %s\n", human(int64(ctx.CiphertextSizeBytes())))

	if *dryRun {
		// A full-chain key travels as its B rows and the 32-byte seed its A
		// rows expand from; held in memory it is both halves.
		limbs := int64(len(bp.Qi))
		swk := limbs*int64(ctx.N)*limbs*8 + 32
		fmt.Printf("switching key size (each, on the wire): %s\n", human(swk))
		fmt.Printf("typical key set (relin + ~48 rotations): %s\n", human(swk*49))
		return
	}
	if *out == "" {
		log.Fatal("-out is required (or use -dry-run)")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	fmt.Println("generating keys...")
	kg := bfv.NewKeyGenerator(ctx, p.Seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	els := bfv.RotationGaloisElements(ctx, []int{1, 2, 4, 8})
	els = append(els, ring.GaloisElementConjugate(ctx.N))
	ks := kg.GenKeySet(sk, els)

	write := func(name string, fn func(f *os.File) error) {
		path := filepath.Join(*out, name)
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := fn(f); err != nil {
			log.Fatal(err)
		}
		st, _ := f.Stat()
		fmt.Printf("  %-16s %10s\n", name, human(st.Size()))
	}
	write("secret.key", func(f *os.File) error { return ctx.WriteSecretKey(sk, f) })
	write("public.key", func(f *os.File) error { return ctx.WritePublicKey(pk, f) })
	write("eval.keys", func(f *os.File) error { return ctx.WriteKeySet(ks, f) })
	fmt.Println("done; load them back with bfv.Context.Read{SecretKey,PublicKey,KeySet}")
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
