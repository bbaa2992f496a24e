package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestRejectsBadShardCounts runs the daemon in a child process (this test
// binary, re-entered with ARBITERD_TEST_SHARDS set) and requires it to exit
// with a usage error instead of serving an unsharded arbiter.
func TestRejectsBadShardCounts(t *testing.T) {
	if n := os.Getenv("ARBITERD_TEST_SHARDS"); n != "" {
		os.Args = []string{"arbiterd", "-listen", "127.0.0.1:0", "-interval", "0", "-shards", n}
		main()
		return
	}
	for _, n := range []string{"0", "-3"} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestRejectsBadShardCounts$")
		cmd.Env = append(os.Environ(), "ARBITERD_TEST_SHARDS="+n)
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-shards %s: err = %v, want exit status 2; output:\n%s", n, err, out)
			continue
		}
		if !strings.Contains(string(out), "must be at least 1") {
			t.Errorf("-shards %s: output does not name the problem:\n%s", n, out)
		}
	}
}
