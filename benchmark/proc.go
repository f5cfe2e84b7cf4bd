package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// userHz is the unit of the CPU fields of /proc/<pid>/stat. The kernel
// exports them in USER_HZ, which is 100 on every Linux port Go supports.
const userHz = 100

// parseStatCPU extracts utime+stime from the contents of /proc/<pid>/stat.
// The command name (field 2) may hold spaces and parentheses, so fields are
// counted from the last ')'.
func parseStatCPU(stat []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %v", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %v", err)
	}
	return time.Duration(utime+stime) * time.Second / userHz, nil
}

// parseStatusHWM extracts VmHWM (peak resident set) in bytes from the
// contents of /proc/<pid>/status.
func parseStatusHWM(status []byte) (int64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: VmHWM: %v", err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// procCPU reads the CPU time a live process has consumed so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// procPeakRSS reads the peak resident set of a live process in bytes.
func procPeakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusHWM(b)
}
