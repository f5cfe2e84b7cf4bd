package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMetricsExtras: named extra sections land in the metrics JSON under
// "extras", and the document still parses without any.
func TestMetricsExtras(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.json")
	f := &Flags{MetricsOut: path}
	s := &Session{flags: f, col: NewCollector()}
	s.SetExtra("serve", map[string]int{"acked": 7})
	if err := s.Close(nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Extras map[string]map[string]int `json:"extras"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Extras["serve"]["acked"] != 7 {
		t.Fatalf("extras section lost: %s", raw)
	}

	path2 := filepath.Join(dir, "plain.json")
	s2 := &Session{flags: &Flags{MetricsOut: path2}, col: NewCollector()}
	if err := s2.Close(nil); err != nil {
		t.Fatal(err)
	}
	raw2, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	var any map[string]json.RawMessage
	if err := json.Unmarshal(raw2, &any); err != nil {
		t.Fatal(err)
	}
	if _, ok := any["extras"]; ok {
		t.Fatal("empty extras must be omitted")
	}
}

// TestProfileFiles: -cpuprofile and -memprofile leave gzipped pprof files
// once the session closes.
func TestProfileFiles(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{CPUProfile: filepath.Join(dir, "cpu.pprof"), MemProfile: filepath.Join(dir, "mem.pprof")}
	s, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(nil); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{f.CPUProfile, f.MemProfile} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
			t.Fatalf("%s is not a gzipped profile (%d bytes)", path, len(raw))
		}
	}
}
