package main

import "testing"

// TestSweepDigestIndependentOfWorkers runs a small mix serially and on two
// workers: the campaign digest must not depend on the worker count, and
// every run must have been timed.
func TestSweepDigestIndependentOfWorkers(t *testing.T) {
	cases, err := genCases(7, 24)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := sweep(cases, "perfbench-test", 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sweep(cases, "perfbench-test", 2)
	if err != nil {
		t.Fatal(err)
	}
	if serial.res.Digest != parallel.res.Digest {
		t.Fatalf("digest differs: serial %s, two workers %s", serial.res.Digest, parallel.res.Digest)
	}
	for i, ms := range parallel.runMS {
		if ms <= 0 {
			t.Fatalf("run %d has no host time", i)
		}
	}
}

// TestGenCasesIsAPureFunctionOfTheSeed pins the mix to the seed.
func TestGenCasesIsAPureFunctionOfTheSeed(t *testing.T) {
	a, err := genCases(3, 200)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genCases(3, 200)
	c, _ := genCases(4, 200)
	same, differs := true, false
	for i := range a {
		same = same && a[i].String() == b[i].String()
		differs = differs || a[i].String() != c[i].String()
	}
	if !same || !differs {
		t.Fatalf("same seed equal: %v, other seed differs: %v", same, differs)
	}
}
