package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workers", "x"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag exit %d, want 2", code)
	}
	// The retired second-harness flags are gone, not ignored.
	for _, flag := range []string{"-json", "-compare"} {
		if code := run([]string{"-fig", "fig01", flag}, &out, &errb); code != 2 {
			t.Errorf("%s exit %d, want 2", flag, code)
		}
	}
}

func TestRunList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("list exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "kernels") {
		t.Errorf("list output missing kernels: %q", out.String())
	}
}

func TestRunUnknownFig(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-fig", "nonsense"}, &out, &errb); code != 1 {
		t.Fatalf("unknown fig exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "unknown id") {
		t.Errorf("stderr: %q", errb.String())
	}
}
