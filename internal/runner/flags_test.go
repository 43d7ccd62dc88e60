package runner

import (
	"flag"
	"testing"
	"time"
)

// TestFlagsNamesAndDefaults pins the engine's command-line surface: the
// four flag names every binary has always accepted, with their defaults.
func TestFlagsNamesAndDefaults(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f.Register(fs, ".some-cache")
	got := map[string]string{}
	fs.VisitAll(func(fl *flag.Flag) { got[fl.Name] = fl.DefValue })
	want := map[string]string{"jobs": "0", "cache-dir": ".some-cache", "no-cache": "false", "job-timeout": "0s"}
	if len(got) != len(want) {
		t.Errorf("registered %v, want exactly %v", got, want)
	}
	for name, def := range want {
		if got[name] != def {
			t.Errorf("-%s default %q, want %q", name, got[name], def)
		}
	}

	if err := fs.Parse([]string{"-jobs", "3", "-job-timeout", "2s", "-cache-dir", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if e := f.Engine(); e.Jobs != 3 || e.Timeout != 2*time.Second || e.Cache == nil || f.Dir() != f.CacheDir {
		t.Errorf("Engine() = {Jobs %d, Timeout %s, Cache %v} over dir %q, flags %+v", e.Jobs, e.Timeout, e.Cache, f.Dir(), f)
	}
	f.NoCache = true
	if f.Dir() != "" || f.CacheLabel() != "memory-only" {
		t.Errorf("-no-cache: Dir() = %q, label %q; want memory only", f.Dir(), f.CacheLabel())
	}

	// The two partial front doors: a server's pool is -workers, and a
	// coordinator declares the cache pair alone.
	srv := Flags{WorkersFlag: "workers"}
	sfs := flag.NewFlagSet("t", flag.ContinueOnError)
	srv.Register(sfs, "")
	if sfs.Lookup("workers") == nil || sfs.Lookup("jobs") != nil {
		t.Error("WorkersFlag must rename -jobs, not add to it")
	}
	var co Flags
	cfs := flag.NewFlagSet("t", flag.ContinueOnError)
	co.RegisterCache(cfs, "")
	n := 0
	cfs.VisitAll(func(*flag.Flag) { n++ })
	if n != 2 || cfs.Lookup("cache-dir") == nil || cfs.Lookup("no-cache") == nil {
		t.Errorf("RegisterCache declared %d flags, want -cache-dir and -no-cache only", n)
	}
}
