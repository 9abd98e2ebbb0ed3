package serve

import (
	"fmt"
	"testing"
)

// TestRedirectRoundTrip: Encode→Decode is the identity.
func TestRedirectRoundTrip(t *testing.T) {
	b := EncodeRedirect(42, "10.0.0.7:7700", "00112233445566778899aabbccddeeff")
	reqID, addr, session, err := DecodeRedirect(b)
	if err != nil {
		t.Fatal(err)
	}
	if reqID != 42 || addr != "10.0.0.7:7700" || session != "00112233445566778899aabbccddeeff" {
		t.Fatalf("roundtrip got (%d, %q, %q)", reqID, addr, session)
	}
}

// TestRedirectMalformed: every truncation and corruption errors — no
// panic, no garbage acceptance. These shapes are what a hostile or
// buggy router could emit.
func TestRedirectMalformed(t *testing.T) {
	good := EncodeRedirect(7, "host:1", "abc")
	cases := map[string][]byte{
		"empty":                  {},
		"short header":           good[:5],
		"header only":            good[:8],
		"truncated addr length":  good[:9],
		"truncated addr body":    good[:12],
		"missing session":        good[:8+2+6],
		"truncated session body": good[:len(good)-1],
		"trailing bytes":         append(append([]byte{}, good...), 0xFF),
		"overlong addr length": func() []byte {
			b := append([]byte{}, good...)
			b[8], b[9] = 0xFF, 0xFF // addr length 65535 >> payload
			return b
		}(),
	}
	for name, b := range cases {
		if _, _, _, err := DecodeRedirect(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestErrCodeStrings: the cluster's recovery codes render their typed
// names, and the retired numbers 8 and 10 stay unassigned.
func TestErrCodeStrings(t *testing.T) {
	if got := CodeSessionNotFound.String(); got != "SESSION_NOT_FOUND" {
		t.Fatalf("CodeSessionNotFound renders %q", got)
	}
	for _, c := range []ErrCode{8, 10} {
		if got, want := c.String(), fmt.Sprintf("ERR_%d", c); got != want {
			t.Fatalf("code %d renders %q, want %q", c, got, want)
		}
	}
	if got := CodeUnavailable.String(); got != "UNAVAILABLE" {
		t.Fatalf("CodeUnavailable renders %q", got)
	}
}
