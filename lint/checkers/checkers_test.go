package checkers_test

import (
	"testing"

	"unico/lint/analysistest"
	"unico/lint/checkers"
)

func TestDetClock(t *testing.T) {
	analysistest.Run(t, checkers.NewDetClock(), "detclock/a")
}

func TestDetClockStrictPackagesRefuseSuppression(t *testing.T) {
	analysistest.Run(t, checkers.NewDetClock(), "detclock/core")
}

func TestNoDefaultClient(t *testing.T) {
	analysistest.Run(t, checkers.NewNoDefaultClient(), "nodefaultclient/a")
}

func TestNoDefaultClientDistExempt(t *testing.T) {
	analysistest.Run(t, checkers.NewNoDefaultClient(), "nodefaultclient/dist")
}

func TestMetricName(t *testing.T) {
	analysistest.Run(t, checkers.NewMetricName(), "metricname/a")
}

func TestMetricNameDuplicateAcrossFiles(t *testing.T) {
	analysistest.Run(t, checkers.NewMetricName(), "metricname/dup")
}

func TestMetricNameDuplicateAcrossPackages(t *testing.T) {
	analysistest.Run(t, checkers.NewMetricName(), "metricname/crosspkg1", "metricname/crosspkg2")
}

// A fresh metricname instance must not remember names from previous runs:
// registering the same fixture twice through two instances stays clean.
func TestMetricNameStateResets(t *testing.T) {
	analysistest.Run(t, checkers.NewMetricName(), "metricname/crosspkg1")
	analysistest.Run(t, checkers.NewMetricName(), "metricname/crosspkg1")
}

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, checkers.NewMapOrder(), "maporder/a")
}

func TestAtomicWrite(t *testing.T) {
	analysistest.Run(t, checkers.NewAtomicWrite(), "atomicwrite/a", "atomicwrite/checkpoint", "atomicwrite/durable")
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, checkers.NewCtxFlow(), "ctxflow/a")
}

func TestCtxFlowMainExempt(t *testing.T) {
	analysistest.Run(t, checkers.NewCtxFlow(), "ctxflow/mainpkg")
}

func TestGoLeak(t *testing.T) {
	analysistest.Run(t, checkers.NewGoLeak(), "goleak/a")
}

func TestLockSafe(t *testing.T) {
	analysistest.Run(t, checkers.NewLockSafe(), "locksafe/a")
}

func TestLockSafeSeesFsyncThroughDurableFile(t *testing.T) {
	analysistest.Run(t, checkers.NewLockSafe(), "locksafe/durable")
}

func TestDurErr(t *testing.T) {
	analysistest.Run(t, checkers.NewDurErr(), "durerr/durable")
}

func TestDurErrOutsideDurable(t *testing.T) {
	analysistest.Run(t, checkers.NewDurErr(), "durerr/a")
}

func TestAllReturnsFreshInstances(t *testing.T) {
	a, b := checkers.All(), checkers.All()
	if len(a) != 9 {
		t.Fatalf("All() = %d analyzers, want 9", len(a))
	}
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("All() returned a shared *Analyzer for %s; cross-run state would leak", a[i].Name)
		}
		if a[i].Name != b[i].Name {
			t.Errorf("All() order is not stable: %s vs %s", a[i].Name, b[i].Name)
		}
	}
}
