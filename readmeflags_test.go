package grasp_test

// TestReadmeFlags is the flag half of the docs gate: README.md documents
// every flag the two daemons declare, and every flag on a README graspd or
// graspworker command line is one the binary declares — so a flag cannot
// be added undocumented, nor removed while a walkthrough still sets it.

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	// flagDecl matches flag.Int("name", ...) and flag.Var(v, "name", ...).
	flagDecl = regexp.MustCompile(`flag\.(?:Bool|Int|Int64|Uint|Float64|String|Duration)\("([^"]+)"|flag\.(?:Var|Func)\([^,]+,\s*"([^"]+)"`)
	// daemonCmd finds a graspd or graspworker invocation in a command line.
	daemonCmd = regexp.MustCompile(`(?:^|\s|\./cmd/)(graspd|graspworker)(?:\s|$)`)
	codeSpan  = regexp.MustCompile("`([^`\n]+)`")
)

// declaredFlags returns the flag names the main package in cmd/<bin>
// declares.
func declaredFlags(t *testing.T, bin string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("cmd", bin, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagDecl.FindAllStringSubmatch(string(src), -1) {
			flags[m[1]+m[2]] = true
		}
	}
	if len(flags) == 0 {
		t.Fatalf("no flags found in cmd/%s", bin)
	}
	return flags
}

// readmeCommands returns README's command lines: fenced lines (with their
// backslash continuations joined) and inline code spans.
func readmeCommands(readme string) []string {
	var cmds []string
	inFence, cont := false, ""
	for _, line := range strings.Split(readme, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				cmds = append(cmds, m[1])
			}
			continue
		}
		if joined, ok := strings.CutSuffix(line, `\`); ok {
			cont += joined
			continue
		}
		cmds = append(cmds, cont+line)
		cont = ""
	}
	return cmds
}

func TestReadmeFlags(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	declared := map[string]map[string]bool{
		"graspd":      declaredFlags(t, "graspd"),
		"graspworker": declaredFlags(t, "graspworker"),
	}

	for bin, flags := range declared {
		var missing []string
		for name := range flags {
			if !regexp.MustCompile(`(?:^|[\s` + "`" + `(])-` + regexp.QuoteMeta(name) + `(?:[\s` + "`" + `=),.:;]|$)`).MatchString(readme) {
				missing = append(missing, "-"+name)
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			t.Errorf("README.md never names %s flags %v", bin, missing)
		}
	}

	checked := 0
	for _, cmd := range readmeCommands(readme) {
		loc := daemonCmd.FindStringSubmatchIndex(cmd)
		if loc == nil {
			continue
		}
		bin := cmd[loc[2]:loc[3]]
		for _, tok := range strings.Fields(cmd[loc[1]:]) {
			if strings.ContainsAny(tok[:1], "|&;>") {
				break // the rest belongs to another command
			}
			name, ok := strings.CutPrefix(tok, "-")
			if !ok || name == "" || name[0] >= '0' && name[0] <= '9' {
				continue // a value, or a negative number
			}
			name, _, _ = strings.Cut(strings.TrimPrefix(name, "-"), "=")
			checked++
			if !declared[bin][name] {
				t.Errorf("README command %q sets -%s, which %s does not declare", cmd, name, bin)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no flags found on README command lines")
	}
}
