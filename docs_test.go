package swcam_bench

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"swcam/internal/perf"
)

// TestExperimentsLedgerBlock fails when the block between EXPERIMENTS.md's
// ledger markers differs from the ledger internal/perf computes, and
// prints the block to commit in its place.
func TestExperimentsLedgerBlock(t *testing.T) {
	src, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- ledger:begin -->\n", "<!-- ledger:end -->"
	doc := string(src)
	i, j := strings.Index(doc, begin), strings.Index(doc, end)
	if i < 0 || j < i {
		t.Fatalf("EXPERIMENTS.md lacks the %q ... %q markers", begin, end)
	}
	want := perf.BuildLedger(perf.Table1(perf.DefaultTable1Config())).Markdown()
	if got := doc[i+len(begin) : j]; got != want {
		t.Errorf("EXPERIMENTS.md's ledger block is stale; replace the lines between the markers with:\n%s", want)
	}
}

// TestDocsCiteExistingTests fails when EXPERIMENTS.md, DESIGN.md or
// README.md names a Test, Benchmark or Fuzz function that no _test.go
// file in the module defines. A trailing * cites every name with that
// prefix, and at least one must exist.
func TestDocsCiteExistingTests(t *testing.T) {
	funcs := testFuncs(t)
	cite := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
	for _, doc := range []string{"EXPERIMENTS.md", "DESIGN.md", "README.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cite.FindAllString(string(src), -1) {
			prefix, isPrefix := strings.CutSuffix(name, "*")
			found := false
			for _, f := range funcs {
				found = found || f == name || isPrefix && strings.HasPrefix(f, prefix)
			}
			if !found {
				t.Errorf("%s cites %s, which no _test.go file defines", doc, name)
			}
		}
	}
}

// testFuncs lists the Test, Benchmark and Fuzz functions that the
// module's _test.go files define.
func testFuncs(t *testing.T) []string {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			funcs = append(funcs, m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}
