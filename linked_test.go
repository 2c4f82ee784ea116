// Linked or gone: every function the library declares must be linked into
// a binary the repo builds, or be named on the allow-list below with its
// reason. The mains are built once, without inlining the module's own
// code. TestMainPackagesBuild reads that build as a compile check of every
// main (these binaries carry no unit tests of their own), and
// TestEveryFunctionIsLinked lists each binary's grasp/ text symbols with
// `go tool nm` and compares them with the functions that the library's
// non-test files declare.
package grasp_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// unlinked names the library functions that no binary links, each with the
// reason it stays. Only two reasons hold: the function completes an
// interface that a linked implementation needs, or it is a helper that the
// tests of more than one package share (a _test.go file cannot be imported
// across packages). Keys use nm's names: pkg.F, pkg.T.M, pkg.(*T).M.
var unlinked = map[string]string{
	"grasp/internal/rt.localCtx.Join":      "interface conformance: rt.Ctx.Join, linked on simCtx",
	"grasp/internal/rt.localCtx.Sleep":     "interface conformance: rt.Ctx.Sleep, linked on simCtx",
	"grasp/internal/rt.(*localChan).Cap":   "interface conformance: rt.Chan.Cap, linked on simChan",
	"grasp/internal/rt.localHandle.handle": "interface conformance: the marker that seals rt.Handle",
	"grasp/internal/rt.simHandle.handle":   "interface conformance: the marker that seals rt.Handle",

	"grasp/internal/metrics.ParseProm":            "shared test helper: validates the /metrics exposition in the tests of metrics, service and the root package",
	"grasp/internal/metrics.parseSample":          "shared test helper: ParseProm's line parser",
	"grasp/internal/metrics.promName":             "shared test helper: ParseProm's metric-name check",
	"grasp/internal/metrics.histSeries":           "shared test helper: ParseProm's histogram-series check",
	"grasp/internal/metrics.(*Registry).Snapshot": "shared test helper: the tests of metrics, service and cluster read counters and gauges by name",
	"grasp/internal/metrics.(*Histogram).Count":   "shared test helper: the tests of metrics, service and cluster count a histogram's samples",
	"grasp/internal/trace.(*Log).Filter":          "shared test helper: the tests of trace, core, engine, farm, dmap, pipeline, compose, service and cluster select events by kind",
}

// mainDirs lists the repo-relative directories holding main packages under
// cmd/ and examples/.
func mainDirs(t *testing.T) []string {
	t.Helper()
	var dirs []string
	for _, parent := range []string{"cmd", "examples"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatalf("read %s: %v", parent, err)
		}
		for _, e := range entries {
			if e.IsDir() {
				dirs = append(dirs, "./"+filepath.Join(parent, e.Name()))
			}
		}
	}
	if len(dirs) < 10 {
		t.Fatalf("found only %d main packages, expected at least 10: %v", len(dirs), dirs)
	}
	return dirs
}

// mainBuild is one go build of a module's mains.
type mainBuild struct {
	module string            // module directory, relative to the repo
	bins   map[string]string // main package → binary; absent if it did not build
	out    []byte            // the build's output when it failed
}

// mains is the one no-inline build of every main that both tests read;
// TestMain removes its directory.
var mains struct {
	once   sync.Once
	dir    string
	builds []mainBuild
	err    error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if mains.dir != "" {
		os.RemoveAll(mains.dir)
	}
	os.Exit(code)
}

// buildMains builds, once, every main under cmd/ and examples/ and bench's
// two (bench/ is a module of its own), without inlining the module's own
// code, so that a function linked only through an inlined call still shows
// in the symbol table.
func buildMains(t *testing.T) []mainBuild {
	t.Helper()
	goBin := goTool(t)
	dirs := mainDirs(t)
	mains.once.Do(func() {
		if mains.dir, mains.err = os.MkdirTemp("", "grasp-mains-"); mains.err != nil {
			return
		}
		for i, m := range []struct {
			module string
			pkgs   []string
		}{{".", dirs}, {"bench", []string{".", "./ladder"}}} {
			out := filepath.Join(mains.dir, fmt.Sprint(i)) + string(filepath.Separator)
			cmd := exec.Command(goBin, append([]string{"build", "-gcflags=grasp/...=-l", "-o", out}, m.pkgs...)...)
			cmd.Dir = m.module
			b := mainBuild{module: m.module, bins: map[string]string{}}
			if log, err := cmd.CombinedOutput(); err != nil {
				b.out = fmt.Appendf(log, "%v\n", err)
			}
			for _, pkg := range m.pkgs {
				name := filepath.Base(filepath.Join(m.module, pkg))
				if runtime.GOOS == "windows" {
					name += ".exe"
				}
				if _, err := os.Stat(out + name); err == nil {
					b.bins[pkg] = out + name
				}
			}
			mains.builds = append(mains.builds, b)
		}
	})
	if mains.err != nil {
		t.Fatalf("build mains: %v", mains.err)
	}
	return mains.builds
}

func TestMainPackagesBuild(t *testing.T) {
	for _, dir := range mainDirs(t) {
		t.Run(dir, func(t *testing.T) {
			if b := buildMains(t)[0]; b.bins[dir] == "" {
				t.Errorf("main %s failed to build:\n%s", dir, b.out)
			}
		})
	}
}

// stripTypeArgs removes the bracketed type arguments of generic
// instantiations, so that pkg.(*T[go.shape.int]).M reads pkg.(*T).M.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// addLinked adds the binary's grasp/ text symbols, type arguments
// stripped, to linked.
func addLinked(linked map[string]bool, goBin, bin string) error {
	out, err := exec.Command(goBin, "tool", "nm", bin).Output()
	if err != nil {
		return fmt.Errorf("go tool nm %s: %v", bin, err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		// "addr type name", where a generic instantiation's name may
		// itself contain spaces.
		fields := strings.SplitN(strings.TrimSpace(line), " ", 3)
		if len(fields) != 3 || (fields[1] != "T" && fields[1] != "t") {
			continue
		}
		if name := fields[2]; strings.HasPrefix(name, "grasp/") {
			linked[stripTypeArgs(name)] = true
		}
	}
	return nil
}

// recvName renders a method receiver the way nm does: T or (*T).
func recvName(expr ast.Expr) string {
	star := false
	if s, ok := expr.(*ast.StarExpr); ok {
		star, expr = true, s.X
	}
	switch x := expr.(type) {
	case *ast.IndexExpr:
		expr = x.X
	case *ast.IndexListExpr:
		expr = x.X
	}
	name := expr.(*ast.Ident).Name
	if star {
		return "(*" + name + ")"
	}
	return name
}

// libraryFuncs lists every function declared in the library's non-test
// files that build on this platform, keyed by nm's name, with its position.
func libraryFuncs(t *testing.T) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	funcs := map[string]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch name := d.Name(); {
			case path == ".":
			case strings.HasPrefix(name, "."), name == "testdata",
				path == "cmd", path == "examples", path == "bench":
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "grasp"
		if dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			key := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				key = pkg + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			funcs[key] = fset.Position(fd.Pos()).String()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("list library functions: %v", err)
	}
	return funcs
}

func TestEveryFunctionIsLinked(t *testing.T) {
	goBin := goTool(t)
	linked := map[string]bool{}
	for _, b := range buildMains(t) {
		if b.out != nil {
			t.Fatalf("go build in %s failed:\n%s", b.module, b.out)
		}
		for _, bin := range b.bins {
			if err := addLinked(linked, goBin, bin); err != nil {
				t.Fatal(err)
			}
		}
	}

	funcs := libraryFuncs(t)
	var missing []string
	for name, pos := range funcs {
		if !linked[name] && unlinked[name] == "" {
			missing = append(missing, name+" ("+pos+")")
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("linked by no binary: %s; delete it, or allow-list it with its reason", m)
	}
	for name := range unlinked {
		switch {
		case funcs[name] == "":
			t.Errorf("allow-listed but not declared: %s; drop it from the allow-list", name)
		case linked[name]:
			t.Errorf("allow-listed but linked: %s; drop it from the allow-list", name)
		}
	}
}
