package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/benchtab.golden from this run")

// TestBenchtabGolden runs every experiment at seed 1, once sequentially and
// once on two workers, and compares benchtab's stdout for each byte for byte
// with testdata/benchtab.golden. A change that moves a cell fails here until
// `go test ./internal/experiments -run BenchtabGolden -update` rewrites the
// file, so the moved cells show up as one diff.
func TestBenchtabGolden(t *testing.T) {
	golden := filepath.Join("testdata", "benchtab.golden")
	for _, workers := range []int{1, 2} {
		var out bytes.Buffer
		WriteRows(&out, Run(All(), 1, workers))
		if *update && workers == 1 {
			if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Bytes(); !bytes.Equal(got, want) {
			n := firstDiffLine(got, want)
			t.Errorf("%d worker(s): benchtab stdout differs from %s at line %d:\n got %q\nwant %q",
				workers, golden, n, lineAt(got, n), lineAt(want, n))
		}
	}
}

// firstDiffLine returns the 1-based number of the first line where a and b
// differ.
func firstDiffLine(a, b []byte) int {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range la {
		if i >= len(lb) || !bytes.Equal(la[i], lb[i]) {
			return i + 1
		}
	}
	return len(la) + 1
}

// lineAt returns line n (1-based) of b, or "" past its end.
func lineAt(b []byte, n int) string {
	if ls := bytes.Split(b, []byte("\n")); n <= len(ls) {
		return string(ls[n-1])
	}
	return ""
}
