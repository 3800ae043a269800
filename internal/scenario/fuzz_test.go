package scenario_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"policyinject/internal/scenario"
	"policyinject/scenarios"
)

// FuzzPackLoad feeds arbitrary documents to the pack loader, seeded with
// the embedded corpus and the testdata/bad fixtures. Loading must never
// panic, and every error must begin with the file:line of its cause.
func FuzzPackLoad(f *testing.F) {
	files, err := scenario.DiscoverFS(scenarios.FS)
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		data, err := fs.ReadFile(scenarios.FS, file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, false)
	}
	bad, err := filepath.Glob(filepath.Join("testdata", "bad", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range bad {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, filepath.Ext(path) == ".json")
	}
	located := map[bool]*regexp.Regexp{
		false: regexp.MustCompile(`^fuzz\.yaml:[0-9]+: `),
		true:  regexp.MustCompile(`^fuzz\.json:[0-9]+: `),
	}
	f.Fuzz(func(t *testing.T, data []byte, json bool) {
		file := "fuzz.yaml"
		if json {
			file = "fuzz.json"
		}
		p, err := scenario.LoadBytes(file, data)
		if err != nil {
			if !located[json].MatchString(err.Error()) {
				t.Fatalf("error without file:line: %v", err)
			}
			return
		}
		_ = p.Describe()
	})
}
