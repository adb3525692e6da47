package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// envRecord is written beside every result: the hardware, the
// toolchain and the code that produced it.
type envRecord struct {
	CPUModel string `json:"cpu_model"`
	// CPUs counts the machine's processors; NProc those the run may use
	// (run.sh pins serve_chaos to one).
	CPUs       int    `json:"cpus"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	// Commit is the checkout's git commit, when it is a git checkout.
	Commit string `json:"commit"`
	// SourceSHA256 hashes the module's Go sources and go.mod files, so
	// a result from a checkout without git still names its code.
	SourceSHA256 string `json:"source_sha256"`
}

func environment() envRecord {
	model, cpus := cpuInfo()
	return envRecord{
		CPUModel:     model,
		CPUs:         cpus,
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		OSArch:       runtime.GOOS + "/" + runtime.GOARCH,
		Commit:       gitCommit("."),
		SourceSHA256: sourceDigest("."),
	}
}

// cpuInfo returns the CPU model and the processor count from
// /proc/cpuinfo.
func cpuInfo() (model string, cpus int) {
	model = "unknown"
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return model, 0
	}
	defer func() { _ = f.Close() }() // read only
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		switch k = strings.TrimSpace(k); {
		case !ok:
		case k == "processor":
			cpus++
		case k == "model name" && cpus == 1:
			model = strings.TrimSpace(v)
		}
	}
	return model, cpus
}

// gitCommit reads the commit of the git checkout at root without
// running git, which would search the parent directories.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown (" + ref + " unresolved)"
}

// sourceDigest hashes every .go and go.mod file under root, skipping
// hidden directories and build output, in path order.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "unknown (" + err.Error() + ")"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown (" + err.Error() + ")"
		}
		_, _ = h.Write([]byte(filepath.ToSlash(p) + "\x00")) // hash writes never fail
		_, _ = h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
