package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestParseOptionsDefaults checks a bare invocation resolves to the
// VM-density experiment with no gates armed.
func TestParseOptionsDefaults(t *testing.T) {
	o, err := parseOptions(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.VMs != 48 || o.cfg.Duration != 2*time.Second {
		t.Errorf("defaults: VMs=%d Duration=%v, want 48 / 2s", o.cfg.VMs, o.cfg.Duration)
	}
	if o.cfg.Shards != 1 {
		t.Errorf("default Shards = %d, want 1", o.cfg.Shards)
	}
	if o.audit || o.tracePath != "" || o.minRate != 0 || o.cpuProfile != "" || o.memProfile != "" {
		t.Errorf("gates armed by default: %+v", o)
	}
	if o.tracing() {
		t.Error("tracing() true with no -trace/-audit")
	}
}

// TestParseOptionsShardedAudit checks the audited sharded invocation
// CI runs, including the probe-cadence default -audit implies.
func TestParseOptionsShardedAudit(t *testing.T) {
	o, err := parseOptions([]string{"-vms", "48", "-shards", "2", "-audit", "-minrate", "50000"})
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.Shards != 2 || !o.audit || o.minRate != 50000 {
		t.Errorf("parsed %+v", o)
	}
	if o.cfg.ProbeEvery != 8 {
		t.Errorf("-audit did not default ProbeEvery: %d", o.cfg.ProbeEvery)
	}
	if !o.tracing() {
		t.Error("tracing() false under -audit")
	}

	o, err = parseOptions([]string{"-audit", "-probe-every", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.ProbeEvery != 3 {
		t.Errorf("explicit -probe-every overridden: %d", o.cfg.ProbeEvery)
	}
}

// TestParseOptionsRejects checks every validation fires with a message
// naming the offending flag.
func TestParseOptionsRejects(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"positional", []string{"extra"}, "unexpected arguments"},
		{"zero-vms", []string{"-vms", "0"}, "-vms"},
		{"negative-workers", []string{"-workers", "-1"}, "-workers"},
		{"unknown-app", []string{"-app", "NotAWorkload"}, "unknown workload"},
		{"zero-duration", []string{"-duration", "0s"}, "-duration"},
		{"negative-churn", []string{"-churn", "-4"}, "-churn"},
		{"negative-interval", []string{"-churn-interval", "-1ms"}, "-churn-interval"},
		{"zero-shards", []string{"-shards", "0"}, "-shards"},
		{"shards-over-vms", []string{"-vms", "2", "-shards", "3"}, "exceeds -vms"},
		{"shards-no-churn", []string{"-shards", "2", "-churn", "0"}, "-churn 0"},
		{"negative-probe", []string{"-probe-every", "-1"}, "-probe-every"},
		{"probe-no-churn", []string{"-churn", "0", "-probe-every", "4"}, "churn probes"},
		{"negative-sample", []string{"-trace-sample", "-2"}, "-trace-sample"},
		{"sample-no-sink", []string{"-trace-sample", "16"}, "would go nowhere"},
		{"audit-no-churn", []string{"-audit", "-churn", "0"}, "-audit"},
		{"negative-minrate", []string{"-minrate", "-5"}, "-minrate"},
		{"unwritable-profile", []string{"-cpuprofile", "no-such-dir/cpu.pprof"}, "-cpuprofile"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseOptions(tc.args)
			if err == nil {
				t.Fatalf("parseOptions(%v) accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseOptionsTraceSampleSinks checks -trace-sample is accepted
// once any sink exists.
func TestParseOptionsTraceSampleSinks(t *testing.T) {
	if _, err := parseOptions([]string{"-trace", "out.jsonl", "-trace-sample", "16"}); err != nil {
		t.Errorf("-trace sink rejected: %v", err)
	}
	o, err := parseOptions([]string{"-audit", "-trace-sample", "16"})
	if err != nil {
		t.Fatalf("-audit sink rejected: %v", err)
	}
	if o.cfg.TraceSample != 16 {
		t.Errorf("TraceSample = %d, want 16", o.cfg.TraceSample)
	}
}

// TestParseOptionsProfiles checks the profiling flags reach the
// options when their directory exists.
func TestParseOptionsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	o, err := parseOptions([]string{"-cpuprofile", cpu, "-memprofile", mem})
	if err != nil {
		t.Fatal(err)
	}
	if o.cpuProfile != cpu || o.memProfile != mem {
		t.Errorf("profiles = %q / %q, want %q / %q", o.cpuProfile, o.memProfile, cpu, mem)
	}
}
