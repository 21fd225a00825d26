package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestDeltaSoakRetriesRefusedRounds: a per-tenant quota below the
// clients' pacing refuses delta rounds over-quota. Each refused round is
// resent unchanged against the same base, so the client's edit-stream
// mirror stays in step with the server's chain: the soak passes with no
// mismatches, and at least one send was refused and retried.
func TestDeltaSoakRetriesRefusedRounds(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-spawn", "-delta", "-clients", "2", "-requests", "30", "-n", "10",
		"-rate", "20", "-spawn-tenant-rate", "10"}, &out)
	if err != nil {
		t.Fatalf("soak failed: %v\n%s", err, out.String())
	}
	m := regexp.MustCompile(`(\d+) refused sends retried`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no retry count in the report:\n%s", out.String())
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Fatalf("no send was refused, so the retry path went unexercised:\n%s", out.String())
	}
}
