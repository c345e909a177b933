// Command docscheck verifies documentation consistency: every repository
// file referenced from the core documents (README.md, DESIGN.md,
// EXPERIMENTS.md, docs/PROTOCOL.md, docs/KERNELS.md, docs/FLEET.md,
// docs/ROBUSTNESS.md, docs/ONLINE.md, doc.go) must exist. It exists because
// docs rot silently — doc.go once pointed readers at an EXPERIMENTS.md
// that was never written — and CI runs it (make docs-check) so a renamed
// or deleted file fails the build instead of stranding readers.
//
// A reference is any token ending in .md, .json, .go or .yml. URLs are
// ignored; tokens containing glob or brace-expansion metacharacters are
// ignored, as are generated benchmark artifacts (BENCH_*.json — gitignored
// outputs of `make bench-json`, absent on a fresh checkout by design). A
// reference resolves if it exists relative to the repository root or
// relative to the referencing document's directory.
//
// Cited test names resolve too: every Test*, Benchmark* or Fuzz* name in
// the documents must match a func defined in some _test.go file in the
// tree, exactly or as a prefix of one — the way `go test -run`/`-bench`
// patterns match — so a deleted or renamed test fails the check instead of
// lingering in the docs.
//
//	docscheck [-root dir]
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// docs are the documents whose references must resolve, relative to the
// repository root.
var docs = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"docs/PROTOCOL.md",
	"docs/KERNELS.md",
	"docs/FLEET.md",
	"docs/ROBUSTNESS.md",
	"docs/ONLINE.md",
	"doc.go",
}

var (
	urlRe     = regexp.MustCompile(`https?://\S+`)
	refRe     = regexp.MustCompile(`[A-Za-z0-9_./-]+\.(?:md|json|go|yml)\b`)
	citedRe   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)
	definedRe = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)
)

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	defined, err := testFuncs(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}
	bad := 0
	for _, doc := range docs {
		path := filepath.Join(*root, doc)
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: cannot read %s: %v\n", doc, err)
			bad++
			continue
		}
		text := urlRe.ReplaceAllString(string(data), "")
		seen := map[string]bool{}
		for _, ref := range refRe.FindAllString(text, -1) {
			ref = strings.TrimLeft(ref, "./")
			if ref == "" || seen[ref] || strings.ContainsAny(ref, "*{}$") {
				continue
			}
			if strings.HasPrefix(filepath.Base(ref), "BENCH_") {
				continue // generated bench artifact, absent on fresh checkouts
			}
			seen[ref] = true
			if exists(filepath.Join(*root, ref)) ||
				exists(filepath.Join(filepath.Dir(path), ref)) {
				continue
			}
			fmt.Fprintf(os.Stderr, "docscheck: %s references missing file %q\n", doc, ref)
			bad++
		}
		for _, name := range citedRe.FindAllString(text, -1) {
			if seen[name] {
				continue
			}
			seen[name] = true
			if !resolves(name, defined) {
				fmt.Fprintf(os.Stderr, "docscheck: %s cites undefined test %q\n", doc, name)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d broken reference(s)\n", bad)
		os.Exit(1)
	}
	fmt.Println("docscheck: all documentation references resolve")
}

// testFuncs returns the names of every Test, Benchmark and Fuzz func
// defined in a _test.go file under root.
func testFuncs(root string) ([]string, error) {
	var names []string
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
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range definedRe.FindAllStringSubmatch(string(data), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	return names, err
}

// resolves reports whether a cited test name matches a defined one exactly
// or as a prefix.
func resolves(name string, defined []string) bool {
	for _, d := range defined {
		if strings.HasPrefix(d, name) {
			return true
		}
	}
	return false
}

func exists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}
