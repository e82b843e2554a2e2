package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// prodLines counts the lines of non-test Go source under internal/ and
// cmd/ plus pesto.go: the production code the benchmark measures.
func prodLines(root string) (int, error) {
	total := 0
	count := func(path string) error {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		total += bytes.Count(data, []byte("\n"))
		return nil
	}
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			return count(path)
		})
		if err != nil {
			return 0, err
		}
	}
	if err := count(filepath.Join(root, "pesto.go")); err != nil {
		return 0, err
	}
	return total, nil
}
