// Package leakcheck fails a test binary that leaves goroutines behind:
// every goroutine a package's tests start in this module's code must have
// ended by the time its tests have.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// ownCode is what a goroutine's stack names when it runs this module's code.
const ownCode = "rdfanalytics/internal/"

// grace is how long Main waits for goroutines that are on their way out: a
// closed server's handlers, a timer's callback.
const grace = 2 * time.Second

// Main runs the tests and exits with their code. When they pass, it polls
// the goroutines for up to grace and fails the binary on any still running
// this module's code, printing each one's stack. A package calls it from
// its TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := wait(grace); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) still running %s code after the tests:\n\n%s\n",
				len(leaked), ownCode, strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// wait polls leaked until it comes back empty or d has passed, and returns
// its last answer.
func wait(d time.Duration) []string {
	deadline := time.Now().Add(d)
	for {
		stacks := leaked()
		if len(stacks) == 0 || time.Now().After(deadline) {
			return stacks
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// leaked returns the stack of every goroutine but the caller's whose stack
// runs this module's code.
func leaked() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i > 0 && strings.Contains(g, ownCode) { // the first is the caller's
			out = append(out, g)
		}
	}
	return out
}
