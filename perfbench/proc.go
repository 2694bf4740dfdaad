package main

// Process accounting from /proc and metric scrapes from /v1/metrics.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of the utime and stime fields of
// /proc/<pid>/stat. Linux fixes it at 100 on every architecture Go
// supports.
const clockTicks = 100

// parseStatCPU returns utime+stime in clock ticks from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and
// may hold spaces, so fields are counted from its closing parenthesis.
func parseStatCPU(b []byte) (uint64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("stat: no command name")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command name", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return ut + st, nil
}

// parseVmHWM returns the peak resident set size in kB from the
// contents of /proc/<pid>/status.
func parseVmHWM(b []byte) (uint64, error) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line[len("VmHWM:"):])
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed %q", line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, errors.New("status: no VmHWM line")
}

// procCPUSeconds returns the process's user+system CPU time.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	t, err := parseStatCPU(b)
	return float64(t) / clockTicks, err
}

// procPeakRSSMB returns the process's peak resident set size in MB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(b)
	return float64(kb) / 1024, err
}

// scrape is one parsed /v1/metrics exposition: series name (with its
// label block) to value.
type scrape map[string]float64

// parseExposition parses Prometheus text format, skipping comments.
func parseExposition(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func fetchScrape(c conn, base string) (scrape, error) {
	resp, err := c.Get(base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

// delta returns after-before for one series (absent counts as 0).
func delta(before, after scrape, name string) float64 {
	return after[name] - before[name]
}

// histSeries names the _sum or _count series of a histogram given as
// family{labels}.
func histSeries(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// histMeanDelta returns the mean of the observations a histogram
// gained between two scrapes, and how many there were.
func histMeanDelta(before, after scrape, name string) (float64, float64) {
	n := delta(before, after, histSeries(name, "_count"))
	return ratio(delta(before, after, histSeries(name, "_sum")), n), n
}
