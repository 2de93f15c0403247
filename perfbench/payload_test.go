package main

import (
	"strings"
	"testing"
)

func TestPayloadRoundTrip(t *testing.T) {
	b := make([]byte, lineSize)
	fillPayload(b, 4242, 17)
	v, err := checkPayload(b, 4242)
	if err != nil || v != 17 {
		t.Fatalf("checkPayload = %d, %v; want 17, nil", v, err)
	}
}

func TestPayloadCatchesEveryFlippedBit(t *testing.T) {
	b := make([]byte, lineSize)
	for bit := 0; bit < lineSize*8; bit++ {
		fillPayload(b, 99, 3)
		b[bit/8] ^= 1 << (bit % 8)
		if _, err := checkPayload(b, 99); err == nil {
			t.Fatalf("flipped bit %d not detected", bit)
		}
	}
}

func TestPayloadCatchesWrongLine(t *testing.T) {
	b := make([]byte, lineSize)
	fillPayload(b, 5, 1)
	_, err := checkPayload(b, 6)
	if err == nil || !strings.Contains(err.Error(), "line index 5") {
		t.Fatalf("payload of line 5 read as line 6: err = %v", err)
	}
}

func TestShadowChecks(t *testing.T) {
	sh := newShadow(8)
	b := make([]byte, lineSize)

	// A read racing a write may return the old or the new version.
	v := sh.issued[3].Add(1)
	fillPayload(b, 3, v)
	if err := sh.checkRead(b, 3, 1); err != nil {
		t.Fatalf("in-flight write's version rejected: %v", err)
	}
	sh.done[3].Store(v)
	fillPayload(b, 3, 1)
	if err := sh.checkRead(b, 3, sh.done[3].Load()); err == nil {
		t.Fatal("stale version accepted after the write was acknowledged")
	}

	all := make([]byte, 8*lineSize)
	for i := uint64(0); i < 8; i++ {
		fillPayload(all[i*lineSize:(i+1)*lineSize], i, sh.done[i].Load())
	}
	if err := sh.checkFinal(all, 0); err != nil {
		t.Fatalf("correct contents rejected: %v", err)
	}
	fillPayload(all[3*lineSize:4*lineSize], 3, 1) // lost write
	if err := sh.checkFinal(all, 0); err == nil {
		t.Fatal("lost write not detected by the final check")
	}
}
