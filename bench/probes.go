package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"athena/internal/bfv"
	"athena/internal/coeffenc"
	"athena/internal/core"
	"athena/internal/fbs"
	"athena/internal/lwe"
	"athena/internal/pack"
	"athena/internal/qnn"
	"athena/internal/serve"
	"athena/internal/store"
)

// sampleCalls calls f until budget is spent and at least minCalls samples
// exist, and returns the duration of each call in nanoseconds. Calls
// shorter than ~20 µs are timed in groups so the clock read does not
// show.
func sampleCalls(budget time.Duration, minCalls int, f func() error) ([]float64, error) {
	t0 := time.Now()
	if err := f(); err != nil {
		return nil, err
	}
	first := time.Since(t0)
	group := 1
	if first < 20*time.Microsecond {
		group = int(50*time.Microsecond/(first+1)) + 1
	}
	var samples []float64
	for start := time.Now(); len(samples) < minCalls || time.Since(start) < budget; {
		t0 = time.Now()
		for i := 0; i < group; i++ {
			if err := f(); err != nil {
				return nil, err
			}
		}
		samples = append(samples, float64(time.Since(t0))/float64(group))
	}
	return samples, nil
}

// timeCalls is the median duration of one call of f.
func timeCalls(budget time.Duration, minCalls int, f func() error) (time.Duration, error) {
	samples, err := sampleCalls(budget, minCalls, f)
	return time.Duration(median(samples)), err
}

// probeKit is a key set and the evaluators of one parameter set, built
// the way core.NewEngine builds its own (full-chain keys, packing at
// the FBS level, S2C at the post level), so each layer's public API can
// be called in isolation at the sizes the workload runs it at.
type probeKit struct {
	p           core.Params
	ctx, ctxF   *bfv.Context
	ctxP        *bfv.Context
	enc         *bfv.Encryptor
	ev, evP     *bfv.Evaluator
	cod, codP   *bfv.Encoder
	lweSK       *lwe.SecretKey
	ksk         *lwe.KeySwitchKey
	packer      *pack.Packer
	s2c         *pack.Transform
	rotEl       uint64
	fbsL, postL int
}

func newProbeKit(p core.Params) (*probeKit, error) {
	k := &probeKit{p: p}
	bp, err := p.BFVParameters()
	if err != nil {
		return nil, err
	}
	if k.ctx, err = bfv.NewContext(bp); err != nil {
		return nil, err
	}
	k.fbsL, k.postL = p.Levels()
	if k.ctxF, err = k.ctx.AtLevel(k.fbsL); err != nil {
		return nil, err
	}
	if k.ctxP, err = k.ctx.AtLevel(k.postL); err != nil {
		return nil, err
	}
	kg := bfv.NewKeyGenerator(k.ctx, p.Seed)
	sk := kg.GenSecretKey()
	k.enc = bfv.NewEncryptor(k.ctx, kg.GenPublicKey(sk), p.Seed^0xbe4c)
	k.cod, k.codP = bfv.NewEncoder(k.ctx), bfv.NewEncoder(k.ctxP)

	k.lweSK = lwe.NewSecretKey(p.LWEDim, p.Seed^0x17e)
	k.ksk = lwe.NewKeySwitchKey(&lwe.SecretKey{S: sk.Signed}, k.lweSK, p.QMid(), p.KSBase, p.Sigma, p.Seed^0x55)

	full, err := pack.NewPacker(k.ctx, k.enc, k.lweSK)
	if err != nil {
		return nil, err
	}
	n, babies := full.Keys()
	down := make([]*bfv.Ciphertext, len(babies))
	for i, b := range babies {
		if down[i], err = k.ctx.ModDown(b, k.fbsL); err != nil {
			return nil, err
		}
	}
	if k.packer, err = pack.NewPackerFromKeys(k.ctxF, n, down); err != nil {
		return nil, err
	}
	if k.s2c, err = pack.CompileTransform(k.ctxP, pack.S2CMatrix(k.ctxP)); err != nil {
		return nil, err
	}
	k.rotEl = k.packer.GaloisElements()[0]
	keys := kg.GenKeySet(sk, pack.DedupGalois(k.packer.GaloisElements(), k.s2c.GaloisElements()))
	k.ev, k.evP = bfv.NewEvaluator(k.ctxF, keys), bfv.NewEvaluator(k.ctxP, keys)
	return k, nil
}

// fbsCounts are the homomorphic operations of one FBS evaluation.
type fbsCounts struct{ CMults, SMults, HAdds int }

// layerProbes times each layer's public API once per metric and returns
// the medians, keyed by metric name, in the metric's unit (µs or ms).
func (k *probeKit) layerProbes(net *qnn.QNetwork, input *qnn.IntTensor, budget time.Duration, minCalls int) (map[string]float64, fbsCounts, error) {
	out := map[string]float64{}
	var fc fbsCounts
	// The first probe that fails stops the ones after it.
	var failed error
	probe := func(name string, unit time.Duration, f func() error) {
		if failed != nil {
			return
		}
		d, err := timeCalls(budget, minCalls, f)
		if err != nil {
			failed = fmt.Errorf("%s: %w", name, err)
		}
		out[name] = float64(d) / float64(unit)
	}
	us := func(name string, f func() error) { probe(name, time.Microsecond, f) }
	ms := func(name string, f func() error) { probe(name, time.Millisecond, f) }
	rng := rand.New(rand.NewPCG(k.p.Seed, 0x9c0be))
	slots := func() []int64 {
		v := make([]int64, k.ctx.N)
		for i := range v {
			v[i] = int64(rng.Uint64N(k.p.T))
		}
		return v
	}

	// ring: one limb, forward and inverse, at the workload's N.
	limb := k.ctx.RingQ.NewPoly().Coeffs[0]
	for j := range limb {
		limb[j] = k.ctx.RingQ.Moduli[0].Reduce(rng.Uint64())
	}
	tab := k.ctx.RingQ.Tables[0]
	us("ring.ntt_fwd_us", func() error { tab.Forward(limb); return nil })
	us("ring.ntt_inv_us", func() error { tab.Inverse(limb); return nil })

	// bfv: the plaintext product runs at the post level (conv
	// accumulation), the ciphertext product and the keyswitch at the FBS
	// level, ModDown from the FBS level to the post level.
	ctFull := k.enc.Encrypt(k.cod.EncodeSlots(slots()))
	ctF, err := k.ctx.ModDown(ctFull, k.fbsL)
	if err != nil {
		return nil, fc, err
	}
	ctF2, err := k.ctx.ModDown(k.enc.Encrypt(k.cod.EncodeSlots(slots())), k.fbsL)
	if err != nil {
		return nil, fc, err
	}
	ctP, err := k.ctx.ModDown(ctFull, k.postL)
	if err != nil {
		return nil, fc, err
	}
	accP := ctP.Clone()
	pmP := k.codP.LiftToMul(k.codP.EncodeSlots(slots()))
	us("bfv.pmult_us", func() error { k.evP.MulPlainAndAdd(ctP, pmP, accP); return nil })
	us("bfv.cmult_us", func() error { _, err := k.ev.Mul(ctF, ctF2); return err })
	us("bfv.keyswitch_us", func() error { _, err := k.ev.Automorphism(ctF, k.rotEl); return err })
	us("bfv.moddown_us", func() error { _, err := k.ctx.ModDown(ctF, k.postL); return err })

	// coeffenc: encoding the first layer's input and one of its kernels.
	if len(net.Convs()) == 0 {
		return nil, fc, fmt.Errorf("network %s has no linear layer", net.Name)
	}
	first := net.Convs()[0]
	cplan, err := coeffenc.NewPlan(first.Shape, k.ctx.N, coeffenc.AthenaOrder)
	if err != nil {
		return nil, fc, err
	}
	in3d := input.To3D()
	us("coeffenc.input_us", func() error { cplan.EncodeInput(in3d, 0); return nil })
	us("coeffenc.kernel_us", func() error { cplan.EncodeKernel(first.Weights, 0, 0); return nil })
	out["coeffenc.encode_us"] = out["coeffenc.input_us"] + out["coeffenc.kernel_us"]

	// lwe: per value, extraction from an RLWE ciphertext at qMid, then
	// the N→n keyswitch with the modulus switch to t.
	a, b, err := k.ctx.SwitchModulus(ctP, k.p.QMid())
	if err != nil {
		return nil, fc, err
	}
	rl := lwe.RLWE{A: a, B: b, Q: k.p.QMid()}
	idx := []int{k.ctx.N / 2}
	var big lwe.Ciphertext
	us("lwe.extract_us", func() error { big = lwe.SampleExtract(rl, idx)[0]; return nil })
	sw := k.ksk.NewSwitcher()
	us("lwe.keyswitch_us", func() error { lwe.ModSwitch(sw.Switch(big), k.p.T); return nil })

	// pack: a full slot vector of LWE ciphertexts into one BFV
	// ciphertext, and S2C on the result.
	smp := lwe.NewStream(k.p.Seed ^ 0xacc)
	cts := make([]lwe.Ciphertext, k.ctx.N)
	for i := range cts {
		cts[i] = lwe.Encrypt(k.lweSK, rng.Uint64N(k.p.T), k.p.T, k.p.Sigma, smp)
	}
	sc := k.packer.NewScratch()
	var packed *bfv.Ciphertext
	ms("pack.pack_ms", func() (err error) { packed, err = k.packer.PackWith(k.ev, sc, cts); return err })
	ms("pack.s2c_ms", func() error { _, err := k.s2c.Apply(k.evP, ctP); return err })

	// fbs: one ReLU look-up table over the packed ciphertext.
	relu, err := fbs.NewEvaluator(k.ctxF, fbs.ReLULUT(k.p.T))
	if err != nil {
		return nil, fc, err
	}
	ms("fbs.eval_ms", func() error { _, err := relu.Evaluate(k.ev, packed); return err })
	fc = fbsCounts{relu.CMults, relu.SMults, relu.HAdds}
	return out, fc, failed
}

// wireProbe times the request and reply codecs of one inference:
// Write+ReadEncryptedInput and Write+ReadEncryptedLogits.
func wireProbe(eng *core.Engine, net *qnn.QNetwork, x *qnn.IntTensor, budget time.Duration, minCalls int) (float64, error) {
	in, err := eng.EncryptInput(net, x)
	if err != nil {
		return 0, err
	}
	out, err := eng.EvaluateEncrypted(net, in)
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	d, err := timeCalls(budget, minCalls, func() error {
		buf.Reset()
		if err := eng.WriteEncryptedInput(in, &buf); err != nil {
			return err
		}
		if _, err := eng.ReadEncryptedInput(net, &buf); err != nil {
			return err
		}
		buf.Reset()
		if err := eng.WriteEncryptedLogits(out, &buf); err != nil {
			return err
		}
		_, err := eng.ReadEncryptedLogits(net, &buf)
		return err
	})
	return float64(d) / 1e6, err
}

// coldLoadProbe times the durable tier's worst case the way the tracked
// SessionColdLoad row does: a fresh registry over a store whose only
// copy of the session is an on-disk segment.
func coldLoadProbe(eng *core.Engine, p core.Params, dir string, budget time.Duration, minCalls int) (float64, error) {
	var blob bytes.Buffer
	if err := eng.WriteEvalKeys(&blob); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	seed := serve.NewRegistry(p, 0)
	seed.SetStore(st)
	s, _, err := seed.Open(blob.Bytes())
	if err != nil {
		return 0, err
	}
	if err := st.Flush(); err != nil {
		return 0, err
	}
	d, err := timeCalls(budget, minCalls, func() error {
		r := serve.NewRegistry(p, 0)
		r.SetStore(st)
		_, err := r.Lookup(s.ID)
		return err
	})
	return float64(d) / 1e6, err
}
