package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"time"
)

// hostClock measures how fast the host is running right now, so that
// timings can be reported at the speed of one reference host instead of
// at whatever speed the neighbours left over.
//
// Why it exists: on the shared 2-core host the profile was calibrated
// on, a fixed single-threaded loop of cache-resident work takes either
// t or about 1.75 t, flipping between the two in stretches of seconds
// to tens of seconds, and the share of slow stretches drifts over
// minutes. Ten back-to-back runs of one workload spread by 20 % between
// their quartiles and two sets of ten taken half an hour apart differed
// by 40 % in their medians — no bound a regression check could use. The
// same runs, each interval weighted by the speed sampled around it,
// spread by 4 %.
//
// The sample is a fixed chunk of standard-library work (ed25519
// verifications and SHA-256 over 1 KiB): nothing of the program under
// test, so no change to the program can move it. It runs on the calling
// goroutine and on a helper at once, one per core, at moments when the
// driver has nothing in flight.
type hostClock struct {
	fast time.Duration // one sub-chunk on the undisturbed calibration host
	pub  ed25519.PublicKey
	msg  []byte
	sig  []byte
}

// newHostClock takes the duration of the whole chunk (chunkParts
// sub-chunks) on the calibration host.
func newHostClock(chunk time.Duration) *hostClock {
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	msg := make([]byte, 1024)
	return &hostClock{fast: chunk / chunkParts, pub: priv.Public().(ed25519.PublicKey), msg: msg, sig: ed25519.Sign(priv, msg)}
}

const (
	chunkParts = 3
	partVerifs = 8
)

// core times the chunk on the calling goroutine and returns this
// core's speed relative to the calibration host undisturbed: 1 when a
// sub-chunk takes h.fast, 0.5 when it takes twice that. The fastest of
// the sub-chunks counts, so a preemption inside one does not read as a
// slow host.
func (h *hostClock) core() float64 {
	best := time.Duration(1 << 62)
	for p := 0; p < chunkParts; p++ {
		t0 := time.Now()
		for i := 0; i < partVerifs; i++ {
			ed25519.Verify(h.pub, h.msg, h.sig)
			sha256.Sum256(h.msg)
		}
		best = min(best, time.Since(t0))
	}
	return float64(h.fast) / float64(best)
}

// speed samples both cores at once and returns their mean speed.
func (h *hostClock) speed() float64 {
	other := make(chan float64, 1)
	go func() { other <- h.core() }()
	own := h.core()
	return (own + <-other) / 2
}
