package obs

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

var processSeries = []string{
	`mobirep_process_syscalls_total{dir="read"}`,
	`mobirep_process_syscalls_total{dir="write"}`,
	`mobirep_process_context_switches_total{kind="voluntary"}`,
	`mobirep_process_context_switches_total{kind="involuntary"}`,
	"mobirep_process_minor_faults_total",
}

// TestProcessCountersRegisteredAndMonotone checks the kernel-sampled
// process counters: all five series are in the default registry and its
// exposition, a scrape never moves one back, and system calls the test
// makes between two scrapes show up in both directions.
func TestProcessCountersRegisteredAndMonotone(t *testing.T) {
	if _, _, ok := readProcIO(); !ok {
		t.Skip("/proc/self/io is not readable here; the syscall series are absent by design")
	}
	before := Default().Snapshot()
	for _, name := range processSeries {
		if _, ok := before.Counters[name]; !ok {
			t.Errorf("%s is not registered", name)
		}
	}
	f, err := os.CreateTemp(t.TempDir(), "io")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const calls = 64
	buf := make([]byte, 512)
	for i := 0; i < calls; i++ {
		if _, err := f.WriteAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	after := Default().Snapshot()
	for _, name := range processSeries {
		if after.Counter(name) < before.Counter(name) {
			t.Errorf("%s went back from %d to %d", name, before.Counter(name), after.Counter(name))
		}
	}
	for _, name := range processSeries[:2] {
		if d := after.Counter(name) - before.Counter(name); d < calls {
			t.Errorf("%s rose by %d across %d calls each way", name, d, calls)
		}
	}
	var b bytes.Buffer
	if _, err := Default().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE mobirep_process_syscalls_total counter",
		"# TYPE mobirep_process_context_switches_total counter",
		"# TYPE mobirep_process_minor_faults_total counter",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}
