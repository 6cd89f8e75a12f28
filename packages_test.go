package idlog

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestEveryInternalPackageShips requires every package under internal/
// to be a dependency of cmd/idlog or cmd/idlogd. Code only tests use
// belongs under claims/, where it does not count as the product.
func TestEveryInternalPackageShips(t *testing.T) {
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	list := func(args ...string) []string {
		t.Helper()
		out, err := exec.Command(goTool, append([]string{"list"}, args...)...).Output()
		if err != nil {
			if ee, ok := err.(*exec.ExitError); ok {
				t.Fatalf("go list %s: %v\n%s", strings.Join(args, " "), err, ee.Stderr)
			}
			t.Fatalf("go list %s: %v", strings.Join(args, " "), err)
		}
		return strings.Fields(string(out))
	}
	shipped := map[string]bool{}
	for _, p := range list("-deps", "./cmd/idlog", "./cmd/idlogd") {
		shipped[p] = true
	}
	internal := list("./internal/...")
	if len(internal) == 0 {
		t.Fatal("go list ./internal/... listed no packages")
	}
	for _, p := range internal {
		if !shipped[p] {
			t.Errorf("%s is not reached by cmd/idlog or cmd/idlogd (move test-only code under claims/)", p)
		}
	}
}
