package qnn_test

import (
	"bytes"
	"testing"

	"athena/internal/qnn"
	"athena/internal/serve"
)

// JSON model serialization must round-trip all structure exactly,
// including residual blocks and fused activations.
func TestQNetworkJSONRoundTrip(t *testing.T) {
	// A quantized ResNet has real scales, calibration fields and residual
	// blocks; DemoNet is the served default.
	net, _ := qnn.NewResNet(20, 17)
	ds := qnn.SynthCIFAR(6, 18)
	qc := qnn.DefaultQuantConfig()
	qc.CalibSamples = 4
	resnet, err := qnn.Quantize(net, ds, qc)
	if err != nil {
		t.Fatal(err)
	}
	demo := serve.DemoNet()
	for _, c := range []struct {
		qn *qnn.QNetwork
		x  *qnn.IntTensor
	}{
		{resnet, resnet.QuantizeInput(ds.Samples[0].X)},
		{demo, serve.DemoInput(1)},
	} {
		qn := c.qn
		var buf bytes.Buffer
		if err := qn.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := qnn.ReadJSONNetwork(&buf)
		if err != nil {
			t.Fatalf("%s: %v", qn.Name, err)
		}
		if back.Name != qn.Name || back.WBits != qn.WBits || back.InScale != qn.InScale {
			t.Fatalf("%s: header changed", qn.Name)
		}
		if len(back.Convs()) != len(qn.Convs()) {
			t.Fatalf("%s: conv count changed", qn.Name)
		}
		// Integer execution must be identical.
		a := qn.ForwardInt(c.x.Clone())
		b := back.ForwardInt(c.x.Clone())
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("%s: output %d differs after JSON round trip", qn.Name, i)
			}
		}
	}
	// Bad format must be rejected.
	if _, err := qnn.ReadJSONNetwork(bytes.NewReader([]byte(`{"format":"nope"}`))); err == nil {
		t.Fatal("wrong format accepted")
	}
}

// FuzzReadJSONNetwork: a model file is outside input. Every network
// ReadJSONNetwork accepts must evaluate; the corpus holds DemoNet and
// four files the reader once accepted and that then panicked: a conv
// with act_bits 0, one with fewer weight rows than outputs, one with no
// bias, and an average pool with k 0.
func FuzzReadJSONNetwork(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := qnn.ReadJSONNetwork(bytes.NewReader(data))
		if err != nil || q.InC*q.InH*q.InW > 1<<12 {
			return
		}
		q.ForwardInt(qnn.NewIntTensor(q.InC, q.InH, q.InW))
	})
}
