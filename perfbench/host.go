package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"fun3d/internal/par"
	"fun3d/internal/perfmodel"
)

// hostInfo is the host record every run prints.
type hostInfo struct {
	CPU        string
	NProc      int
	GOMAXPROCS int
	LLCBytes   int64 // largest cache level's size (0 when unknown)
	LLCLevel   int
	RAMBytes   int64 // MemTotal
	AvailBytes int64 // MemAvailable
	GoVersion  string
}

func readHost() hostInfo {
	h := hostInfo{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if f, err := os.Open("/proc/meminfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) < 2 {
				continue
			}
			kb, _ := strconv.ParseInt(fields[1], 10, 64)
			switch fields[0] {
			case "MemTotal:":
				h.RAMBytes = kb << 10
			case "MemAvailable:":
				h.AvailBytes = kb << 10
			}
		}
		f.Close()
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level, err1 := readInt(filepath.Join(d, "level"))
		size, err2 := readSize(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		if int(level) > h.LLCLevel || (int(level) == h.LLCLevel && size > h.LLCBytes) {
			h.LLCLevel, h.LLCBytes = int(level), size
		}
	}
	return h
}

func readInt(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
}

// readSize parses a sysfs cache size such as "300M" or "4096K".
func readSize(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	s := strings.TrimSpace(string(b))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	return v * mult, err
}

func (h hostInfo) print(w io.Writer) {
	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d llc=L%d %s ram=%s go=%s\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.LLCLevel, mib(h.LLCBytes), gib(h.RAMBytes), h.GoVersion)
}

func mib(b int64) string { return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20)) }
func gib(b int64) string { return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30)) }

// streamInLLCElems is the per-array element count internal/bench uses for
// its STREAM normalization (32 MiB per array).
const streamInLLCElems = 1 << 22

// overLLCElems is the per-array element count for the over-LLC STREAM
// triad: a combined footprint of at least 4x the LLC, capped at a quarter
// of the available RAM (limited reports that the cap applied).
func overLLCElems(h hostInfo) (elems int64, limited bool) {
	elems = streamInLLCElems
	if h.LLCBytes > 0 {
		elems = max(elems, (4*h.LLCBytes+23)/24) // 3 arrays of 8-byte elements
	}
	if h.AvailBytes > 0 && elems*24 > h.AvailBytes/4 {
		elems, limited = h.AvailBytes/4/24, true
	}
	return elems, limited
}

// streamRates measures the two STREAM triad rates on a pool of the given
// size: one over elems-element arrays (see overLLCElems) and one at
// internal/bench's 1<<22 elements.
func streamRates(w io.Writer, h hostInfo, threads int, elems int64, limited bool) (overLLC, inLLC float64) {
	pool := par.NewPool(threads)
	defer pool.Close()
	overLLC = perfmodel.StreamTriad(pool, int(elems))
	note := ""
	if limited {
		note = " (limited by available RAM; below 4x LLC)"
	}
	fmt.Fprintf(w, "stream: triad %.2f GB/s over 3 x %s = %s (%.2fx LLC)%s, %d threads\n",
		overLLC/1e9, mib(elems*8), mib(elems*24), float64(elems*24)/float64(max(h.LLCBytes, 1)), note, threads)
	runtime.GC()
	inLLC = perfmodel.StreamTriad(pool, streamInLLCElems)
	fmt.Fprintf(w, "stream: triad %.2f GB/s over 3 x %s (internal/bench size, inside a %s LLC)\n",
		inLLC/1e9, mib(streamInLLCElems*8), mib(h.LLCBytes))
	return overLLC, inLLC
}

// peakRSS returns the process's peak resident set (VmHWM), 0 when unknown.
func peakRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseInt(fields[1], 10, 64)
			return kb << 10
		}
	}
	return 0
}
