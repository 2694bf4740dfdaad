package main

import (
	"os"
	"strings"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := "4242 (my (odd) proc) S 1 4242 4242 0 -1 4194560 100 0 0 0 111 222 0 0 20 0 3 0 5 0 0\n"
	got, err := parseStatCPU([]byte(stat))
	if err != nil || got != 333 {
		t.Fatalf("parseStatCPU = %d, %v; want 333", got, err)
	}
	if _, err := parseStatCPU([]byte("4242 (x) S 1 2")); err == nil {
		t.Error("short stat: no error")
	}
	b, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		t.Skip("no /proc")
	}
	if _, err := parseStatCPU(b); err != nil {
		t.Errorf("/proc/self/stat: %v", err)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tsidqserve\nVmPeak:\t  800000 kB\nVmHWM:\t   34892 kB\nVmRSS:\t   30000 kB\n"
	got, err := parseVmHWM([]byte(status))
	if err != nil || got != 34892 {
		t.Fatalf("parseVmHWM = %d, %v; want 34892", got, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("no VmHWM line: no error")
	}
	if _, err := procPeakRSSMB(os.Getpid()); err != nil {
		t.Errorf("own VmHWM: %v", err)
	}
}

func TestParseExposition(t *testing.T) {
	text := `# HELP sidq_x_total x
# TYPE sidq_x_total counter
sidq_x_total 7
sidq_lat_ns_bucket{route="/v1/clean",le="1024"} 3
sidq_lat_ns_sum{route="/v1/clean"} 3000
sidq_lat_ns_count{route="/v1/clean"} 3
sidq_events_total{kind="late"} 2.5e+06
`
	before, err := parseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(strings.NewReader(strings.NewReplacer(
		"sidq_x_total 7", "sidq_x_total 10",
		`_sum{route="/v1/clean"} 3000`, `_sum{route="/v1/clean"} 9000`,
		`_count{route="/v1/clean"} 3`, `_count{route="/v1/clean"} 5`,
	).Replace(text)))
	if err != nil {
		t.Fatal(err)
	}
	if d := delta(before, after, "sidq_x_total"); d != 3 {
		t.Errorf("delta = %g, want 3", d)
	}
	if before[`sidq_events_total{kind="late"}`] != 2.5e6 {
		t.Errorf("labelled series: %v", before)
	}
	mean, n := histMeanDelta(before, after, `sidq_lat_ns{route="/v1/clean"}`)
	if mean != 3000 || n != 2 {
		t.Errorf("histMeanDelta = %g over %g, want 3000 over 2", mean, n)
	}
	if _, err := parseExposition(strings.NewReader("novalue\n")); err == nil {
		t.Error("malformed line: no error")
	}
}
