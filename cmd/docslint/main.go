// Command docslint enforces the repo's documentation layer, next to go vet
// in CI:
//
//   - every package under internal/ must carry its contract in a doc.go
//     whose leading comment is a proper "// Package <name> ..." godoc
//     comment (the layer map in ARCHITECTURE.md points at these);
//   - relative links in the repo's markdown docs must resolve to files
//     that exist, so the docs cannot silently rot as files move;
//   - every internal package must appear in ARCHITECTURE.md's layer map
//     (as "internal/<name>"), so a new subsystem cannot land without a
//     place in the documented architecture;
//   - every upper-case doc name (README.md and the like) a Go file mentions must exist
//     at the repo root or next to that file, so comments cannot point
//     readers at documents that are not there.
//
// Usage:
//
//	go run ./cmd/docslint [-root dir]
//
// Exits nonzero listing every violation; prints nothing when clean.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root to lint")
	flag.Parse()
	var failures []string
	failures = append(failures, checkDocFiles(*root)...)
	failures = append(failures, checkMarkdownLinks(*root)...)
	failures = append(failures, checkLayerMap(*root)...)
	failures = append(failures, checkGoDocNames(*root)...)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "docslint:", f)
		}
		os.Exit(1)
	}
}

// checkDocFiles requires a doc.go with a "// Package <name>" comment in
// every directory under internal/ that contains Go source.
func checkDocFiles(root string) []string {
	var failures []string
	dirs, err := filepath.Glob(filepath.Join(root, "internal", "*"))
	if err != nil || len(dirs) == 0 {
		return []string{fmt.Sprintf("listing internal packages: %v (found %d)", err, len(dirs))}
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		srcs, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		if len(srcs) == 0 {
			continue // not a Go package directory
		}
		name := filepath.Base(dir)
		docPath := filepath.Join(dir, "doc.go")
		data, err := os.ReadFile(docPath)
		if err != nil {
			failures = append(failures, fmt.Sprintf("internal/%s: missing doc.go (every internal package documents its contract there)", name))
			continue
		}
		if !strings.HasPrefix(string(data), "// Package "+name) {
			failures = append(failures, fmt.Sprintf("internal/%s/doc.go: must start with a %q godoc comment", name, "// Package "+name))
		}
	}
	return failures
}

// checkLayerMap requires every internal Go package to be mentioned as
// "internal/<name>" in ARCHITECTURE.md, which holds the repo's layer map.
func checkLayerMap(root string) []string {
	arch, err := os.ReadFile(filepath.Join(root, "ARCHITECTURE.md"))
	if err != nil {
		return []string{fmt.Sprintf("ARCHITECTURE.md: %v", err)}
	}
	dirs, _ := filepath.Glob(filepath.Join(root, "internal", "*"))
	sort.Strings(dirs)
	var failures []string
	for _, dir := range dirs {
		srcs, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		if len(srcs) == 0 {
			continue
		}
		name := filepath.Base(dir)
		if !strings.Contains(string(arch), "internal/"+name) {
			failures = append(failures, fmt.Sprintf("ARCHITECTURE.md: layer map does not mention internal/%s", name))
		}
	}
	return failures
}

// docName matches an upper-case markdown doc name such as README.md.
var docName = regexp.MustCompile(`\b[A-Z][A-Z0-9_]*\.md\b`)

// checkGoDocNames resolves every doc name mentioned in a Go file (comments,
// strings and flag help alike) against the repo root and the file's own
// directory. Hidden directories (build caches, VCS metadata) are skipped.
func checkGoDocNames(root string) []string {
	var failures []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, name := range docName.FindAllString(line, -1) {
				if exists(filepath.Join(root, name)) || exists(filepath.Join(filepath.Dir(path), name)) {
					continue
				}
				rel, _ := filepath.Rel(root, path)
				failures = append(failures, fmt.Sprintf("%s:%d: dangling doc name %s (no such file at the repo root or next to the file)", rel, i+1, name))
			}
		}
		return nil
	})
	if err != nil {
		failures = append(failures, fmt.Sprintf("walking Go files: %v", err))
	}
	return failures
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// mdLink matches [text](target); target is captured up to the closing paren.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)]+)\)`)

// fencedBlock matches ``` fenced code blocks; inlineCode matches `...`
// spans. Both are stripped before link matching so bracket-paren text in
// code examples is never mistaken for a markdown link.
var (
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	inlineCode  = regexp.MustCompile("`[^`\n]*`")
)

// checkMarkdownLinks resolves every relative link in the root-level
// markdown files against the filesystem.
func checkMarkdownLinks(root string) []string {
	var failures []string
	docs, err := filepath.Glob(filepath.Join(root, "*.md"))
	if err != nil || len(docs) == 0 {
		return []string{fmt.Sprintf("listing markdown docs: %v (found %d)", err, len(docs))}
	}
	sort.Strings(docs)
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", doc, err))
			continue
		}
		prose := inlineCode.ReplaceAllString(fencedBlock.ReplaceAllString(string(data), ""), "")
		for _, m := range mdLink.FindAllStringSubmatch(prose, -1) {
			target := strings.TrimSpace(m[1])
			if i := strings.IndexAny(target, " \""); i >= 0 {
				target = target[:i] // drop optional link titles
			}
			if target == "" || strings.Contains(target, "://") ||
				strings.HasPrefix(target, "#") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i] // anchors resolve against the file
			}
			resolved := filepath.Join(filepath.Dir(doc), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				failures = append(failures, fmt.Sprintf("%s: dangling link %q (%v)", filepath.Base(doc), m[1], err))
			}
		}
	}
	return failures
}
