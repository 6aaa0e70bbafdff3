package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// profiledPackages are the packages whose share of the traced replay's
// CPU samples a traced run reports as cpu_share.<name>; every other
// package counts as "other". Names are a package path's last element,
// so the FIPS SHA-256 behind crypto/sha256 counts as sha256.
var profiledPackages = []string{
	"json", "strconv", "reflect", "sha256", "core", "mat", "optimize", "engine",
	"privacy", "workload", "rng", "runtime", "syscall", "other",
}

// packageShares reads the CPU profile at path with `go tool pprof` and
// returns, per profiledPackages entry, the share of samples whose
// innermost frame is in that package.
func packageShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-sample_index=samples", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	top, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return sharesFromTop(top)
}

// sharesFromTop folds the function rows of `go tool pprof -top` output
// (flat sample count first, function name last) into package shares.
func sharesFromTop(top []byte) (map[string]float64, error) {
	known := make(map[string]bool, len(profiledPackages))
	for _, k := range profiledPackages {
		known[k] = true
	}
	out := make(map[string]float64, len(profiledPackages))
	var total float64
	rows := false
	sc := bufio.NewScanner(bytes.NewReader(top))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !rows {
			rows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		n, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		pkg := packageOf(f[5])
		if !known[pkg] {
			pkg = "other"
		}
		out[pkg] += n
		total += n
	}
	if !rows {
		return nil, fmt.Errorf("no function rows in pprof output %q", top)
	}
	for _, k := range profiledPackages {
		if total > 0 {
			out[k] /= total
		} else {
			out[k] = 0
		}
	}
	return out, nil
}

// packageOf returns the last element of a symbol's package path:
// "lrm/internal/mat.(*Dense).Rows" → "mat", "runtime.mallocgc" →
// "runtime".
func packageOf(symbol string) string {
	slash := strings.LastIndexByte(symbol, '/')
	rest := symbol[slash+1:]
	if dot := strings.IndexByte(rest, '.'); dot >= 0 {
		rest = rest[:dot]
	}
	return rest
}
