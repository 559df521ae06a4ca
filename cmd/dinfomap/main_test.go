package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dinfomap/internal/launch"
)

// runMainEnv makes the test binary act as the dinfomap command: a test
// re-executes itself with this variable set and the command's flags.
const runMainEnv = "DINFOMAP_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestCheckInput(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(file, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, dataset, path string
		wantErr             string // "" = no error
	}{
		{name: "file", path: file},
		{name: "dataset", dataset: "amazon"},
		{name: "dataset ignores path", dataset: "amazon", path: filepath.Join(dir, "absent")},
		{name: "no input", wantErr: "need an edge-list file or -dataset"},
		{name: "missing path", path: filepath.Join(dir, "absent"), wantErr: "no such file or directory"},
		{name: "directory", path: dir, wantErr: "is a directory"},
		{name: "unknown dataset", dataset: "no-such-dataset", wantErr: "no-such-dataset"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := launch.Input{Dataset: tc.dataset, Path: tc.path}.Check()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("Check: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("Check accepted the input, want an error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("Check: %v, want an error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestLoadGraphRejectsWhatCheckInputRejects pins that both transports
// fail on the same inputs with the same error: the in-process path
// reaches the check through Input.Load, the launcher calls it directly.
func TestLoadGraphRejectsWhatCheckInputRejects(t *testing.T) {
	dir := t.TempDir()
	for _, in := range []launch.Input{
		{Path: filepath.Join(dir, "absent")},
		{Path: dir},
		{Dataset: "no-such-dataset"},
	} {
		want := in.Check()
		if want == nil {
			t.Fatalf("%+v.Check() accepted a bad input", in)
		}
		if _, err := in.Load(); err == nil || err.Error() != want.Error() {
			t.Fatalf("%+v.Load() = %v, want %v", in, err, want)
		}
	}
}

// TestBadInputFailsBeforeSpawn runs the command on bad inputs with both
// transports: each run must exit non-zero with the same message, and
// the proc launcher must fail before starting any rank process.
func TestBadInputFailsBeforeSpawn(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"missing path", []string{filepath.Join(dir, "absent")}},
		{"directory", []string{dir}},
		{"unknown dataset", []string{"-dataset", "no-such-dataset"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr [2]string
			for i, transport := range []string{"goroutine", "proc"} {
				args := append([]string{"-p", "2", "-q", "-transport", transport}, tc.args...)
				cmd := exec.Command(os.Args[0], args...)
				cmd.Env = append(os.Environ(), runMainEnv+"=1")
				var out bytes.Buffer
				cmd.Stderr = &out
				err := cmd.Run()
				var exitErr *exec.ExitError
				if !errors.As(err, &exitErr) {
					t.Fatalf("-transport %s: want a non-zero exit, got %v", transport, err)
				}
				stderr[i] = out.String()
				if strings.Contains(stderr[i], "rank ") {
					t.Fatalf("-transport %s: a rank process ran: %s", transport, stderr[i])
				}
			}
			if stderr[0] != stderr[1] || !strings.HasPrefix(stderr[0], "dinfomap: ") {
				t.Fatalf("stderr differs by transport:\n goroutine: %q\n proc:      %q", stderr[0], stderr[1])
			}
		})
	}
}

// TestBadOutputPathFailsBeforeRun: an output file whose directory is
// missing, or is a file, fails the command at once, naming the path,
// before the run prints its result.
func TestBadOutputPathFailsBeforeRun(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "f")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		flag, path, wantErr string
	}{
		{"-metrics", filepath.Join(dir, "absent", "m.json"), "no such file or directory"},
		{"-out", filepath.Join(file, "comms.txt"), "is not a directory"},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-p", "2", "-q", "-dataset", "amazon", "-scale", "0.05", tc.flag, tc.path)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exitErr *exec.ExitError
			if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
				t.Fatalf("want exit status 1, got %v", err)
			}
			if msg := stderr.String(); !strings.Contains(msg, tc.path) || !strings.Contains(msg, tc.wantErr) {
				t.Fatalf("stderr %q does not name %s with %q", msg, tc.path, tc.wantErr)
			}
			if strings.Contains(stdout.String(), "modules:") {
				t.Fatalf("the run went ahead:\n%s", stdout.String())
			}
		})
	}
}
