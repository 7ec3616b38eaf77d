package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// hostInfo states what this run could and could not see: a number
// measured on 2 cores says nothing about 8, so every result carries the
// host it was taken on instead of an extrapolation.
type hostInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// BinaryWorkers is the worker count ixpmine and ixpserve pick on this
	// host (GOMAXPROCS-1, at least 1, at most 8); 1 is the serial
	// fallback, so below 3 cores no parallel path runs in the binaries.
	BinaryWorkers  int     `json:"binary_workers"`
	SerialFallback bool    `json:"serial_fallback"`
	Clients        int     `json:"clients"`
	FSType         string  `json:"fs_type"`
	BuildS         float64 `json:"build_s"`
}

// env is what every workload run needs: where the repository and the
// built binaries are, where fixtures go, and the host block.
type env struct {
	root    string
	workDir string // parent of every fixture directory
	ixpgen  string
	ixpmine string
	serve   string
	host    *hostInfo
}

// findRoot walks up from the working directory to the ixplens module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(b), "module ixplens\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no ixplens go.mod above the working directory; run from the repository")
		}
		dir = parent
	}
}

// clientCount is how many closed-loop client connections the one bench
// process opens: one per core, at most 4 so the cold walk's disjoint
// week partitions stay longer than the 2-week cache.
func clientCount() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// binaryWorkers mirrors capture.analyzeWorkers / the stream workers.
func binaryWorkers() int {
	w := runtime.GOMAXPROCS(0) - 1
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

// prepare builds ixpgen, ixpmine and ixpserve once into
// .bench_build/bin and fills the host block. Build time is reported as
// build_s and is not part of any workload's setup_s.
func prepare() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	bin := filepath.Join(build, "bin")
	e := &env{
		root:    root,
		workDir: filepath.Join(build, "work"),
		ixpgen:  filepath.Join(bin, "ixpgen"),
		ixpmine: filepath.Join(bin, "ixpmine"),
		serve:   filepath.Join(bin, "ixpserve"),
	}
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin+string(os.PathSeparator),
		"./cmd/ixpgen", "./cmd/ixpmine", "./cmd/ixpserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %w: %s", err, tail(out))
	}
	e.host = &hostInfo{
		Commit:         commit(root),
		GoVersion:      runtime.Version(),
		CPUModel:       cpuModel(),
		NProc:          runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		BinaryWorkers:  binaryWorkers(),
		SerialFallback: binaryWorkers() == 1,
		Clients:        clientCount(),
		FSType:         fsType(e.workDir),
		BuildS:         seconds(time.Since(start)),
	}
	return e, nil
}

// commit is the checked-out revision, "unknown" outside a git checkout
// (the benchmark driver runs from an exported tree).
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem under dir, so fsync-heavy numbers can be
// attributed to the disk they were taken on.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
		0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}
