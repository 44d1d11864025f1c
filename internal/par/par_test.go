package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if Workers(0) != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d", Workers(0))
	}
	if Workers(-3) != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d", Workers(-3))
	}
	if Workers(5) != 5 {
		t.Errorf("Workers(5) = %d", Workers(5))
	}
}

func TestDoCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		n := 237
		counts := make([]atomic.Int32, n)
		Do(n, workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestDoZeroAndOne(t *testing.T) {
	ran := 0
	Do(0, 4, func(int) { ran++ })
	if ran != 0 {
		t.Errorf("Do(0) ran %d times", ran)
	}
	Do(1, 4, func(int) { ran++ })
	if ran != 1 {
		t.Errorf("Do(1) ran %d times", ran)
	}
}
