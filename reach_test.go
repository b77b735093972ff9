package swcam_bench

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// stdMethods are the method names standard-library code calls through
// its own interfaces (fmt.Stringer, error, errors.Unwrap, http.Handler,
// io.Reader and io.Writer, sort.Interface). Those calls happen inside
// std, where the closure does not look, so a reached type keeps them.
var stdMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"Read": true, "Write": true, "Len": true, "Less": true, "Swap": true,
}

// TestInternalReachable fails when a package-level declaration in a
// non-test file under internal/ is reached from no binary and is not
// listed in testdata/unreachable.txt, and when a listed entry is reached
// or no longer exists, so the list can only shrink. The roots are the
// main and init funcs of every main package (cmd/*, examples/*,
// benchmark) and the var initializers and init funcs of every package
// they import. Each allowlist reason must name a test that exists, or a
// ROADMAP item.
func TestInternalReachable(t *testing.T) {
	r := newReach(t)
	for _, root := range []string{"cmd", "examples", "benchmark"} {
		for _, dir := range goDirs(t, root) {
			r.load(t, dir)
		}
	}
	for _, dir := range goDirs(t, "internal") {
		r.load(t, dir)
	}
	r.close()

	allowed := readAllowlist(t)
	var lines int
	for _, d := range r.decls {
		name := declName(d.obj)
		listed := allowed[name]
		delete(allowed, name)
		switch {
		case r.reached[d.obj] || !strings.HasPrefix(d.pkg.Path(), "swcam/internal/"):
			if listed {
				t.Errorf("testdata/unreachable.txt lists %s, which a binary now reaches; delete the entry", name)
			}
		case !listed:
			t.Errorf("%s (%s) is reached from no binary: delete it, move it into a _test.go file, or list it in testdata/unreachable.txt with the test that needs it",
				name, r.fset.Position(d.node.Pos()))
			fallthrough
		default:
			lines += r.fset.Position(d.node.End()).Line - r.fset.Position(d.node.Pos()).Line + 1
		}
	}
	for name := range allowed {
		t.Errorf("testdata/unreachable.txt lists %s, which no longer exists; delete the entry", name)
	}
	t.Logf("%d lines of internal/ declarations are reached from no binary", lines)
}

// readAllowlist returns the names testdata/unreachable.txt lists: one
// "<name> <reason>" per line, blank lines and #-comments skipped.
func readAllowlist(t *testing.T) map[string]bool {
	f, err := os.Open("testdata/unreachable.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	funcs := testFuncs(t)
	cite := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*|\bROADMAP \d+\b`)
	allowed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if allowed[name] {
			t.Errorf("testdata/unreachable.txt:%d lists %s twice", n, name)
		}
		allowed[name] = true
		ok := false
		for _, c := range cite.FindAllString(reason, -1) {
			ok = ok || strings.HasPrefix(c, "ROADMAP") || slices.Contains(funcs, c)
		}
		if !ok {
			t.Errorf("testdata/unreachable.txt:%d: the reason for %s names no existing test and no ROADMAP item", n, name)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allowed
}

// goDirs lists the directories under root that hold Go files.
func goDirs(t *testing.T, root string) []string {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !slices.Contains(dirs, filepath.Dir(path)) {
			dirs = append(dirs, filepath.Dir(path))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// reachDecl is one package-level declaration or concrete method of the
// module; node is its FuncDecl, TypeSpec or ValueSpec.
type reachDecl struct {
	obj  types.Object
	node ast.Node
	pkg  *types.Package
	info *types.Info
}

// reach type-checks the module's packages once, std through the source
// importer, and closes the reached set over their declarations.
type reach struct {
	fset  *token.FileSet
	ctxt  build.Context
	std   types.Importer
	pkgs  map[string]*types.Package
	roots []*reachDecl // init and main funcs, var initializers

	decls   []*reachDecl
	declOf  map[types.Object]*reachDecl
	reached map[types.Object]bool
	queue   []*reachDecl
	ifaces  map[*types.Func]bool // interface methods that reached code calls
}

func newReach(t *testing.T) *reach {
	// The source importer reads build.Default; without cgo it type-checks
	// std's pure-Go files instead of running the cgo tool.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	t.Cleanup(func() { build.Default.CgoEnabled = cgo })
	fset := token.NewFileSet()
	return &reach{
		fset: fset, ctxt: build.Default, std: importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{}, declOf: map[types.Object]*reachDecl{},
		reached: map[types.Object]bool{}, ifaces: map[*types.Func]bool{},
	}
}

// Import resolves module paths by loading them and std paths through
// the source importer.
func (r *reach) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, "swcam/")
	if !ok {
		return r.std.Import(path)
	}
	if p := r.pkgs[path]; p != nil {
		return p, nil
	}
	return r.check(path, filepath.FromSlash(dir))
}

func (r *reach) load(t *testing.T, dir string) {
	path := "swcam/" + filepath.ToSlash(dir)
	if r.pkgs[path] != nil {
		return
	}
	if _, err := r.check(path, dir); err != nil {
		t.Fatal(err)
	}
}

// check parses the host-platform non-test files of dir, type-checks
// them and indexes their declarations.
func (r *reach) check(path, dir string) (*types.Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := r.ctxt.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(r.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: r}).Check(path, r.fset, files, info)
	if err != nil {
		return nil, err
	}
	r.pkgs[path] = pkg
	add := func(obj types.Object, node ast.Node) {
		if obj != nil && obj.Name() != "_" {
			d := &reachDecl{obj: obj, node: node, pkg: pkg, info: info}
			r.decls = append(r.decls, d)
			r.declOf[obj] = d
		}
	}
	root := func(node ast.Node) { r.roots = append(r.roots, &reachDecl{node: node, pkg: pkg, info: info}) }
	for _, f := range files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				name := decl.Name.Name
				if decl.Recv == nil && (name == "init" || name == "main" && pkg.Name() == "main") {
					root(decl)
					continue
				}
				add(info.Defs[decl.Name], decl)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(info.Defs[spec.Name], spec)
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(info.Defs[n], spec)
						}
						if decl.Tok == token.VAR && len(spec.Values) > 0 {
							for _, v := range spec.Values {
								root(v)
							}
						}
					}
				}
			}
		}
	}
	return pkg, nil
}

// close marks every declaration the roots reach. Var initializers and
// init funcs count only in packages some main package imports.
func (r *reach) close() {
	imported := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if imported[p] {
			return
		}
		imported[p] = true
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range r.pkgs {
		if p.Name() == "main" {
			walk(p)
		}
	}
	for _, d := range r.roots {
		if imported[d.pkg] {
			r.visit(d.node, d.info)
		}
	}
	r.drain()
	for changed := true; changed; {
		changed = false
		for _, d := range r.decls {
			if r.reached[d.obj] || !r.keptByInterface(d.obj) {
				continue
			}
			r.mark(d.obj)
			r.drain()
			changed = true
		}
	}
}

// keptByInterface reports whether obj is a method of a reached type
// that std code may call, or that implements an interface method that
// reached code calls.
func (r *reach) keptByInterface(obj types.Object) bool {
	f, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := recvNamed(recv.Type())
	if named == nil || !r.reached[named.Obj()] {
		return false
	}
	if stdMethods[f.Name()] {
		return true
	}
	ptr := types.NewPointer(named)
	for m := range r.ifaces {
		if m.Name() != f.Name() {
			continue
		}
		t := m.Type().(*types.Signature).Recv().Type()
		if tp, ok := t.(*types.TypeParam); ok {
			t = tp.Constraint()
		}
		if iface, ok := t.Underlying().(*types.Interface); ok && types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}

func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// visit marks every module object node refers to, and records the
// interface methods it calls.
func (r *reach) visit(node ast.Node, info *types.Info) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				r.ifaces[obj] = true
			}
			r.mark(obj.Origin())
		case *types.Var:
			r.mark(obj.Origin())
		case types.Object:
			r.mark(obj)
		}
		return true
	})
}

func (r *reach) mark(obj types.Object) {
	d := r.declOf[obj]
	if d == nil || r.reached[obj] {
		return
	}
	r.reached[obj] = true
	r.queue = append(r.queue, d)
	if n, ok := obj.Type().(*types.Named); ok {
		r.mark(n.Obj()) // a const or var of a named type reaches that type
	}
}

func (r *reach) drain() {
	for len(r.queue) > 0 {
		d := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.visit(d.node, d.info)
	}
}

// declName is importpath.Name, or importpath.Type.Method for a method.
func declName(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			if n := recvNamed(recv.Type()); n != nil {
				return fmt.Sprintf("%s.%s.%s", obj.Pkg().Path(), n.Obj().Name(), obj.Name())
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
