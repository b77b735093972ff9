package swcam_bench

import (
	"bufio"
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// bceLine is one line of the compiler's check_bce diagnostics.
var bceLine = regexp.MustCompile(`^(internal/\S+\.go):(\d+):(\d+): Found (IsInBounds|IsSliceInBounds)$`)

// TestBoundsCheckBudgets builds internal/... with the compiler's
// bounds-check diagnostics (-d=ssa/check_bce/debug=1) and holds every
// function listed in testdata/codegen.txt to its budget: the number of
// distinct source positions at which a bounds check survives in it,
// closures counted in their enclosing function. A function over its
// budget fails, naming the positions; one under it fails too, asking for
// the lower budget, so the list only ratchets down. Counting distinct
// positions makes the count the same from a clean build and from one
// whose diagnostics the build cache replays.
func TestBoundsCheckBudgets(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(goTool, "build", "-gcflags=swcam/internal/...=-d=ssa/check_bce/debug=1", "./internal/...")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build with check_bce diagnostics: %v\n%s", err, out)
	}
	var found []bcePos
	seen := map[bcePos]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		m := bceLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		l, _ := strconv.Atoi(m[2])
		c, _ := strconv.Atoi(m[3])
		if p := (bcePos{m[1], l, c}); !seen[p] {
			seen[p] = true
			found = append(found, p)
		}
	}
	if len(found) == 0 {
		t.Fatalf("the build printed no bounds-check diagnostics; the flag or its output format changed:\n%s", out)
	}
	slices.SortFunc(found, func(a, b bcePos) int {
		return cmp.Or(strings.Compare(a.file, b.file), cmp.Compare(a.line, b.line), cmp.Compare(a.col, b.col))
	})

	checks := map[string][]string{} // function -> "file:line:col" of each check, in order
	ranges := map[string][]funcRange{}
	for _, p := range found {
		if ranges[p.file] == nil {
			ranges[p.file] = funcRanges(t, p.file)
		}
		name := "(package level)"
		for _, f := range ranges[p.file] {
			if f.contains(p.line, p.col) {
				name = f.name
				break
			}
		}
		checks[name] = append(checks[name], fmt.Sprintf("%s:%d:%d", p.file, p.line, p.col))
	}

	budgets := readBudgets(t)
	for _, b := range budgets {
		if !b.exists {
			t.Errorf("testdata/codegen.txt:%d lists %s, which no longer exists; delete the entry", b.line, b.name)
			continue
		}
		got := checks[b.name]
		switch {
		case len(got) > b.budget:
			t.Errorf("%s has %d bounds checks, over its budget of %d (testdata/codegen.txt:%d); remove the new ones:\n\t%s",
				b.name, len(got), b.budget, b.line, strings.Join(got, "\n\t"))
		case len(got) < b.budget:
			t.Errorf("%s has %d bounds checks, under its budget of %d: lower the budget to %d in testdata/codegen.txt:%d",
				b.name, len(got), b.budget, len(got), b.line)
		}
	}
}

// bcePos is the source position of one bounds check.
type bcePos struct {
	file      string
	line, col int
}

// funcRange is one top-level function or method of a source file, named
// pkg.Func or pkg.Recv.Method, and the span of its declaration.
type funcRange struct {
	name     string
	from, to token.Position
}

func (f funcRange) contains(line, col int) bool {
	after := line > f.from.Line || line == f.from.Line && col >= f.from.Column
	before := line < f.to.Line || line == f.to.Line && col <= f.to.Column
	return after && before
}

// funcRanges parses file and returns its function declarations.
func funcRanges(t *testing.T, file string) []funcRange {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var out []funcRange
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		out = append(out, funcRange{name: funcName(f.Name.Name, fd), from: fset.Position(fd.Pos()), to: fset.Position(fd.End())})
	}
	return out
}

// funcName is pkg.Func, or pkg.Recv.Method for a method.
func funcName(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
			continue
		case *ast.IndexExpr:
			typ = x.X
			continue
		case *ast.IndexListExpr:
			typ = x.X
			continue
		}
		break
	}
	return pkg + "." + typ.(*ast.Ident).Name + "." + fd.Name.Name
}

// budget is one entry of testdata/codegen.txt.
type budget struct {
	name   string
	budget int
	line   int
	exists bool
}

// readBudgets reads testdata/codegen.txt: one "<pkg.Func or
// pkg.Recv.Method> <budget> <reason>" a line, blank lines and
// #-comments skipped. Every entry needs a reason, and each entry is
// marked with whether internal/ still declares the function.
func readBudgets(t *testing.T) []budget {
	declared := map[string]bool{}
	for _, dir := range goDirs(t, "internal") {
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			for _, f := range funcRanges(t, file) {
				declared[f.name] = true
			}
		}
	}
	f, err := os.Open("testdata/codegen.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []budget
	listed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.SplitN(line, " ", 3)
		if len(fields) < 3 || strings.TrimSpace(fields[2]) == "" {
			t.Errorf("testdata/codegen.txt:%d: want \"<function> <budget> <reason>\", got %q", n, line)
			continue
		}
		b, err := strconv.Atoi(fields[1])
		if err != nil || b < 0 {
			t.Errorf("testdata/codegen.txt:%d: budget %q is not a count", n, fields[1])
			continue
		}
		if listed[fields[0]] {
			t.Errorf("testdata/codegen.txt:%d lists %s twice", n, fields[0])
		}
		listed[fields[0]] = true
		out = append(out, budget{name: fields[0], budget: b, line: n, exists: declared[fields[0]]})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("testdata/codegen.txt lists no function")
	}
	return out
}
