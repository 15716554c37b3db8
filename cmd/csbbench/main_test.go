package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"csb/internal/core"
)

func buildSeed(t *testing.T, hosts, sessions int, rngSeed uint64) *core.Seed {
	t.Helper()
	seed, err := core.SyntheticSeed(hosts, sessions, rngSeed)
	if err != nil {
		t.Fatal(err)
	}
	return seed
}

func TestParseHelpers(t *testing.T) {
	if got := parseInt64s("1,2, 3"); len(got) != 3 || got[2] != 3 {
		t.Fatalf("parseInt64s = %v", got)
	}
	if got := parseInt64s(""); len(got) != 0 {
		t.Fatalf("empty parse = %v", got)
	}
	if got := parseInts("10,20"); len(got) != 2 || got[1] != 20 {
		t.Fatalf("parseInts = %v", got)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		done <- buf.String()
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

// TestSmokeTable1 runs the lightest experiment end to end through the
// printing path of the command.
func TestSmokeTable1(t *testing.T) {
	seed := buildSeed(t, 20, 300, 7)
	out := captureStdout(t, func() { table1(seed, 7) })
	if !strings.Contains(out, "dip-T") || !strings.Contains(out, "tuned detection") {
		t.Fatalf("table1 output: %q", out)
	}
}
