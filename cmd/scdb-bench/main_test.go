package main

import (
	"reflect"
	"strings"
	"testing"
)

// known stands in for main's experiment list: selectExperiments is a
// pure function of the spec and the names it is given.
var known = []string{"fig2", "fig7", "mix", "traffic"}

func TestSelectExperimentsSubset(t *testing.T) {
	got, err := selectExperiments("traffic, mix ,traffic", known)
	if err != nil {
		t.Fatalf("selectExperiments: %v", err)
	}
	if want := []string{"traffic", "mix"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("selected %v, want %v", got, want)
	}
}

func TestSelectExperimentsAll(t *testing.T) {
	got, err := selectExperiments("all", known)
	if err != nil {
		t.Fatalf("selectExperiments: %v", err)
	}
	if !reflect.DeepEqual(got, known) {
		t.Fatalf("all expanded to %v, want %v", got, known)
	}
	// "all" plus an explicit name stays deduplicated.
	got, err = selectExperiments("mix,all", known)
	if err != nil {
		t.Fatalf("selectExperiments: %v", err)
	}
	if len(got) != len(known) || got[0] != "mix" {
		t.Fatalf("mix,all selected %v", got)
	}
}

func TestSelectExperimentsUnknown(t *testing.T) {
	for _, spec := range []string{"bogus", "traffic,bogus", "traffi", "parallel"} {
		_, err := selectExperiments(spec, known)
		if err == nil {
			t.Fatalf("spec %q: expected an error, got none", spec)
		}
		msg := err.Error()
		if !strings.Contains(msg, "unknown experiment") {
			t.Fatalf("spec %q: error %q does not flag the unknown name", spec, msg)
		}
		// The error teaches the valid set instead of just rejecting.
		for _, name := range known {
			if !strings.Contains(msg, name) {
				t.Fatalf("spec %q: error %q does not list known experiment %q", spec, msg, name)
			}
		}
	}
}

func TestSelectExperimentsEmpty(t *testing.T) {
	for _, spec := range []string{"", " , ,"} {
		if _, err := selectExperiments(spec, known); err == nil {
			t.Fatalf("spec %q: expected an error, got none", spec)
		}
	}
}
