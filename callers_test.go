package swishmem_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestCallerGate holds two lists to callerAllow, a ratchet like
// goneOutsideBench: a name the census finds must be listed with a reason, and
// a listed name it no longer finds (it gained a caller, or it is gone) must
// leave the list, so the list only shrinks.
//
// The census type-checks the non-test files of every package of the module
// and of bench/ (go/types; the standard library from source), so a use is a
// resolved object, not a name: sim.Time.Sub does not stand in for another
// type's Sub.
//
//   - funcs: every exported function and method declared in internal/ whose
//     object no non-test file uses. A concrete method is also used when it
//     implements an interface method that a non-test file calls. Methods
//     that satisfy a standard-library interface (standardMethods) are exempt.
//   - fields: every exported field of an exported *Config or *Options struct
//     in internal/ or the root package (internal/wire's messages excepted)
//     that no non-test file sets, by composite-literal key or by assignment.
//     An assignment inside an `if` that tests the same field (the defaulting
//     idiom `if c.X == 0 { c.X = d }`) chooses nothing and does not count.
//
// To keep a name the census finds, add it to callerAllow with the one-line
// reason it earns its place (a paper section or a ROADMAP item by title).
// Better: delete it, or move it into a _test.go file of its package when all
// its callers are tests there.
func TestCallerGate(t *testing.T) {
	c := callerCensus(t)
	found := map[string]bool{}
	for _, name := range append(c.funcs, c.fields...) {
		found[name] = true
		if _, ok := callerAllow[name]; !ok {
			t.Errorf("%s: nothing outside tests uses it; delete it, move it to a _test.go file, or add it to callerAllow with a reason", name)
		}
	}
	for name, why := range callerAllow {
		if !found[name] {
			t.Errorf("%s is in callerAllow but now has a caller or is gone; drop the entry", name)
		}
		if strings.TrimSpace(why) == "" {
			t.Errorf("%s is in callerAllow without a reason", name)
		}
	}
}

// callerAllow is what the census finds and keeps, each with its reason.
var callerAllow = map[string]string{
	// internal/chain stays as it is until "Single-crash failover must be
	// linearizable" lands on unchanged code.
	"internal/chain.Config.MaxRetries":      "chain stays unchanged; TestWriteFailsAfterMaxRetries sets it",
	"internal/chain.Config.RetransmitDepth": "chain stays unchanged; TestRetransmitBuffersChargedToSRAM varies it",
	"internal/chain.Node.Config":            "chain stays unchanged; core's TestEROClass reads the node's mode",
	// Bodies of the root bench_test.go benchmarks (`make bench`), kept next
	// to the experiments whose set-up they share.
	"internal/experiments.MicroDDoSReplay":        "root benchmark body",
	"internal/experiments.MicroEWOBurstAdd":       "root benchmark body",
	"internal/experiments.MicroEWOCounterAdd":     "root benchmark body",
	"internal/experiments.MicroEWOMerge":          "root benchmark body",
	"internal/experiments.MicroEWOSum":            "root benchmark body",
	"internal/experiments.MicroEWOSyncMerge":      "root benchmark body",
	"internal/experiments.MicroEWOSyncRound":      "root benchmark body",
	"internal/experiments.MicroEngineDeepQueue":   "root benchmark body",
	"internal/experiments.MicroEngineFanout":      "root benchmark body",
	"internal/experiments.MicroEngineScheduleRun": "root benchmark body",
	"internal/experiments.MicroNetemLocalSend":    "root benchmark body",
	"internal/experiments.MicroNetemSendDeliver":  "root benchmark body",
	"internal/experiments.MicroSROLocalRead":      "root benchmark body",
	"internal/experiments.MicroSROWriteCommit":    "root benchmark body",
	// The explorer's entry points, run from the root explore_test.go (`make explore`).
	"internal/explore.Generate":                           "root explore_test.go replays a seed's scenario",
	"internal/explore.Sweep":                              "root explore_test.go sweeps seeds",
	"internal/explore.TortureScenario":                    "root torture_test.go runs it",
	"internal/explore.Scenario.Crashes":                   "root torture_test.go checks a recovery happened",
	"internal/explore.Failure.Report":                     "root explore_test.go prints a failing seed's report",
	"internal/explore.RunOptions.Faults":                  "the fault-menu leg of `make explore`",
	"internal/explore.RunOptions.Retransmit":              "the backend leg of `make explore`",
	"internal/explore.RunOptions.InjectDisableRetransmit": "plants a bug that proves the oracles catch it",
	"internal/explore.RunOptions.InjectNoRevive":          "plants a bug that proves the oracles catch it",
	"internal/explore.RunOptions.InjectSkipForward":       "plants a bug that proves the oracles catch it",
	// Paper options the Example functions set, and what they read back.
	"swishmem.StrongOptions.ReplicaOn":         "§9 locality: replicas on a subset, proxies elsewhere",
	"swishmem.DDoSOptions.Width":               "§4.2 count-min sketch size",
	"swishmem.DDoSOptions.Depth":               "§4.2 count-min sketch size",
	"internal/controller.Directory.Lookup":     "§9 directory: where a register's replicas are",
	"internal/controller.Controller.Dead":      "§6.3 failure detection, read by the NAT failover Example",
	"internal/core.StrongRegister.MemoryBytes": "§9 locality: the replicaOn Example prints each handle's SRAM, 0 on a proxy",
	// Test observers whose callers sit in another package's tests.
	"internal/lincheck.Check":               "the one-key checker chain's debug test calls",
	"internal/netem.Network.Stats":          "live and pisa tests read one link's counters",
	"internal/netem/live.Node.SetRecvLoss":  "bench/'s read-loss tests and the live loss tests drop received datagrams",
	"internal/nf/ratelimit.Limiter.Blocked": "root nf_test checks a user is blocked",
	"internal/nf/ratelimit.Limiter.Usage":   "root nf_test reads a user's usage",
	"internal/obs.Snapshot.Diff":            "root observe_test diffs two snapshots",
	"internal/obs.Snapshot.Value":           "root timeline_test and the live pump tests read one metric",
	"internal/obs.Tracer.Cap":               "root observe_test checks the ring wrapped",
	"internal/timesync.Synced.Offset":       "ewo's LWW reference model reads the clock offset",
	"internal/wire.Marshal":                 "live tests frame one message as a datagram",
	// Knobs only tests turn, each to a value the default cannot give.
	"internal/ewo.Config.SyncWindow":                    "ewo property tests shrink the sync walk",
	"internal/livecluster.MemberConfig.HeartbeatPeriod": "member_test silences a member's periodic traffic",
	"internal/livecluster.MemberConfig.HelloPeriod":     "member_test silences a member's periodic traffic",
	"internal/livecluster.MemberConfig.SyncPeriod":      "member_test silences a member's periodic traffic",
	"internal/livecluster.SoakConfig.SampleInterval":    "soak_test samples the timeline faster",
	"internal/workload.TraceConfig.Clients":             "workload tests pin the Zipf client pool",
	"internal/workload.TraceConfig.MeanPacketsPerFlow":  "workload tests pin the flow length",
}

// standardMethods are method names a type carries to satisfy an interface
// that the standard library calls, so no module file calls them.
var standardMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "Set": true, "Write": true, "Read": true,
}

// census is the gate's view of the tree: what it finds, and every
// *Config/*Options type with its fields and methods (TestDocsCiteNoDeletedSnapshot
// checks documents' `Type.Field` citations against it).
type census struct {
	funcs, fields []string
	// members maps "Type" and "pkg.Type" to the fields and methods of every
	// *Config/*Options type of that name, test files' methods included.
	members map[string]map[string]bool
}

var (
	censusOnce sync.Once
	censusVal  *census
	censusErr  error
)

func callerCensus(t *testing.T) *census {
	t.Helper()
	censusOnce.Do(func() { censusVal, censusErr = takeCensus() })
	if censusErr != nil {
		t.Fatal(censusErr)
	}
	return censusVal
}

// pkg is one type-checked package of the tree. dir is its slash path from
// the repo root ("swishmem" for the root package); files are its non-test
// files, tests its test files (parsed, not type-checked).
type pkg struct {
	dir          string
	types        *types.Package
	info         *types.Info
	files, tests []*ast.File
}

// tree type-checks the module's and bench/'s packages from source on demand
// (it is their types.Importer) and hands every other import to the standard
// library's source importer.
type tree struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*pkg // by import path; nil while being checked
	errs []error
}

func (tr *tree) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, "swishmem/")
	if path == "swishmem" {
		dir, ok = ".", true
	}
	if !ok {
		return tr.std.Import(path)
	}
	p, err := tr.load(dir)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load type-checks the package in dir (a slash path from the repo root, "."
// for the root package) once.
func (tr *tree) load(dir string) (*pkg, error) {
	path := "swishmem/" + dir
	if dir == "." {
		path = "swishmem"
	}
	if p, seen := tr.pkgs[path]; seen {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	tr.pkgs[path] = nil
	p := &pkg{dir: strings.TrimPrefix(path, "swishmem/"), info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	parse := func(names []string) ([]*ast.File, error) {
		var fs []*ast.File
		for _, n := range names {
			f, err := parser.ParseFile(tr.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			fs = append(fs, f)
		}
		return fs, nil
	}
	if p.files, err = parse(bp.GoFiles); err != nil {
		return nil, err
	}
	if p.tests, err = parse(append(bp.TestGoFiles, bp.XTestGoFiles...)); err != nil {
		return nil, err
	}
	conf := types.Config{Importer: tr, Error: func(err error) { tr.errs = append(tr.errs, err) }}
	p.types, _ = conf.Check(path, tr.fset, p.files, p.info)
	tr.pkgs[path] = p
	return p, nil
}

// loadTree type-checks every package directory of the module, bench/
// included, and returns them in walk order.
func loadTree() ([]*pkg, error) {
	fset := token.NewFileSet()
	tr := &tree{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*pkg{}}
	var pkgs []*pkg
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
			return fs.SkipDir
		}
		p, err := tr.load(filepath.ToSlash(path))
		var none *build.NoGoError
		if errors.As(err, &none) {
			return nil
		}
		pkgs = append(pkgs, p)
		return err
	})
	if err == nil {
		err = errors.Join(tr.errs...)
	}
	return pkgs, err
}

func takeCensus() (*census, error) {
	pkgs, err := loadTree()
	if err != nil {
		return nil, err
	}
	c := &census{members: map[string]map[string]bool{}}
	used := map[types.Object]bool{}
	set := map[types.Object]bool{}
	ifaceCalls := map[string][]*types.Interface{} // interface methods called, by name
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			used[obj] = true
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaceCalls[id.Name] = append(ifaceCalls[id.Name], recv.Type().Underlying().(*types.Interface))
				}
			}
		}
		for _, f := range p.files {
			setFields(p.info, f, set)
		}
	}

	for _, p := range pkgs {
		internal := strings.HasPrefix(p.dir, "internal/")
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if internal && obj.Exported() && !used[obj] {
					c.funcs = append(c.funcs, p.dir+"."+name)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				if isOptions(name) {
					c.options(p, named, set)
				}
				if !internal {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !standardMethods[m.Name()] && !used[m] && !implementsCalled(named, ifaceCalls[m.Name()]) {
						c.funcs = append(c.funcs, p.dir+"."+name+"."+m.Name())
					}
				}
			}
		}
		for _, f := range p.tests {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					if typ := recvName(fd.Recv.List[0].Type); isOptions(typ) {
						c.addMember(p.types.Name(), typ, fd.Name.Name)
					}
				}
			}
		}
	}
	sort.Strings(c.funcs)
	sort.Strings(c.fields)
	return c, nil
}

// origin maps an instantiated generic function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// implementsCalled reports whether T or *T implements one of ifaces.
func implementsCalled(named *types.Named, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// options records a *Config/*Options type's members and, for an exported
// struct of internal/ or the root package, its exported fields nothing sets.
func (c *census) options(p *pkg, named *types.Named, set map[types.Object]bool) {
	name := named.Obj().Name()
	checked := named.Obj().Exported() && p.dir != "internal/wire" &&
		(p.dir == "swishmem" || strings.HasPrefix(p.dir, "internal/"))
	if st, ok := named.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			c.addMember(p.types.Name(), name, f.Name())
			if checked && f.Exported() && !set[f] {
				c.fields = append(c.fields, p.dir+"."+name+"."+f.Name())
			}
		}
	}
	for i := 0; i < named.NumMethods(); i++ {
		c.addMember(p.types.Name(), name, named.Method(i).Name())
	}
}

func isOptions(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")
}

// recvName is the type name of a method receiver expression.
func recvName(e ast.Expr) string {
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func (c *census) addMember(pkgName, typ, member string) {
	for _, k := range []string{typ, pkgName + "." + typ} {
		if c.members[k] == nil {
			c.members[k] = map[string]bool{}
		}
		c.members[k][member] = true
	}
}

// setFields records in set every struct field f sets: by composite-literal
// key (or every field, for a positional literal) and by assignment, unless
// the assignment is the defaulting idiom.
func setFields(info *types.Info, f *ast.File, set map[types.Object]bool) {
	var ifs []*ast.IfStmt
	assign := func(lhs ast.Expr) {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok || info.Selections[sel] == nil || defaulting(ifs, sel) {
			return
		}
		set[origin(info.Selections[sel].Obj())] = true
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			ifs = append(ifs, n)
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				return true
			}
			st, ok := deref(tv.Type).Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					set[origin(info.Uses[kv.Key.(*ast.Ident)])] = true
				} else {
					set[st.Field(i)] = true
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, l := range n.Lhs {
					assign(l)
				}
			}
		case *ast.IncDecStmt:
			assign(n.X)
		}
		return true
	})
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// defaulting reports whether sel is assigned inside the body of an if
// statement whose condition reads the same selector.
func defaulting(ifs []*ast.IfStmt, sel *ast.SelectorExpr) bool {
	want := selText(sel)
	for _, is := range ifs {
		if is.Body.Pos() > sel.Pos() || sel.End() > is.Body.End() {
			continue
		}
		reads := false
		ast.Inspect(is.Cond, func(n ast.Node) bool {
			if s, ok := n.(*ast.SelectorExpr); ok && selText(s) == want {
				reads = true
			}
			return !reads
		})
		if reads {
			return true
		}
	}
	return false
}

// selText renders a selector chain such as c.cfg.X as text.
func selText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return selText(e.X) + "." + e.Sel.Name
	}
	return "?"
}
