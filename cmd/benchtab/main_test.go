package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestAllGolden fails when `benchtab -all` or `benchtab -json -all`
// differs from its committed output under testdata/, and prints the
// new text. A change that moves a paper table, figure or ledger row
// regenerates the file and names the changed rows.
func TestAllGolden(t *testing.T) {
	for _, c := range []struct {
		file string
		args []string
	}{
		{"all.txt", []string{"-all"}},
		{"all.json", []string{"-json", "-all"}},
	} {
		t.Run(c.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(c.args, &got); err != nil {
				t.Fatalf("run(%q): %v", c.args, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("benchtab %q differs from testdata/%s; replace that file with:\n%s",
					c.args, c.file, got.String())
			}
		})
	}
}

// TestRunRejectsEmptySelection pins the usage error main turns into
// exit status 2.
func TestRunRejectsEmptySelection(t *testing.T) {
	for _, args := range [][]string{nil, {"-json"}, {"-table", "9"}, {"-bogus"}} {
		var out bytes.Buffer
		if err := run(args, &out); err != errUsage {
			t.Errorf("run(%q) = %v, want errUsage", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) wrote %q to stdout", args, out.String())
		}
	}
}
