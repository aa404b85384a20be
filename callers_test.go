package swishmem_test

import (
	"go/ast"
	"go/parser"
	"go/token"
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
//   - funcs: every exported function and method in internal/ whose name no
//     non-test .go file of the module or of bench/ uses. A name counts as used
//     wherever an expression names it; declarations do not count. Methods that
//     satisfy a standard-library interface (standardMethods) are exempt.
//   - fields: every exported field of an exported *Config or *Options struct
//     in internal/ or the root package (internal/wire's messages excepted)
//     that no such file sets, by composite-literal key or by assignment. An
//     assignment inside an `if` that tests the same field (the defaulting
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
	"internal/explore.RunOptions.Faults":                  "the fault-menu leg of `make explore`",
	"internal/explore.RunOptions.Retransmit":              "the backend leg of `make explore`",
	"internal/explore.RunOptions.InjectDisableRetransmit": "plants a bug that proves the oracles catch it",
	"internal/explore.RunOptions.InjectNoRevive":          "plants a bug that proves the oracles catch it",
	"internal/explore.RunOptions.InjectSkipForward":       "plants a bug that proves the oracles catch it",
	// internal/sketch waits for a benchmark change: bench/ still calls
	// NewCountMin and Add.
	"internal/sketch.CountMin.Clone":    "internal/sketch goes with bench/'s sketch probe",
	"internal/sketch.CountMin.Estimate": "internal/sketch goes with bench/'s sketch probe",
	"internal/sketch.CountMin.MergeMax": "internal/sketch goes with bench/'s sketch probe",
	// Paper options the Example functions set, and what they read back.
	"swishmem.StrongOptions.ReplicaOn":     "§9 locality: replicas on a subset, proxies elsewhere",
	"swishmem.DDoSOptions.Width":           "§4.2 count-min sketch size",
	"swishmem.DDoSOptions.Depth":           "§4.2 count-min sketch size",
	"internal/controller.Directory.Lookup": "§9 directory: where a register's replicas are",
	"internal/controller.Controller.Dead":  "§6.3 failure detection, read by the NAT failover Example",
	// Test observers whose callers sit in another package's tests.
	"internal/lincheck.Check":             "the one-key checker chain's debug test calls",
	"internal/nf/ratelimit.Limiter.Usage": "root nf_test reads a user's usage",
	"internal/obs.Snapshot.Diff":          "root observe_test diffs two snapshots",
	"internal/obs.Tracer.Cap":             "root observe_test checks the ring wrapped",
	"internal/pisa.Switch.PacketPool":     "nat tests inject pooled packets through it",
	"internal/timesync.Synced.Offset":     "ewo's LWW reference model reads the clock offset",
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
// that the standard library calls, so no module file names them.
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

// srcFile is one parsed .go file; dir is its slash path from the repo root
// ("swishmem" for the root package), imports maps its local names of module
// packages to their dirs, and stdlib holds its local names of the others.
type srcFile struct {
	dir     string
	test    bool
	f       *ast.File
	imports map[string]string
	stdlib  map[string]bool
}

func parseTree() ([]*srcFile, error) {
	fset := token.NewFileSet()
	var files []*srcFile
	pkgName := map[string]string{} // dir -> package name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "." {
			dir = "swishmem"
		}
		test := strings.HasSuffix(path, "_test.go")
		if !test {
			pkgName[dir] = f.Name.Name
		}
		files = append(files, &srcFile{dir: dir, test: test, f: f})
		return nil
	})
	for _, sf := range files {
		sf.imports, sf.stdlib = map[string]string{}, map[string]bool{}
		for _, imp := range sf.f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			var dir string
			switch {
			case p == "swishmem":
				dir = p
			case strings.HasPrefix(p, "swishmem/"):
				dir = strings.TrimPrefix(p, "swishmem/")
			default:
				name := p[strings.LastIndex(p, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				sf.stdlib[name] = true
				continue
			}
			name := pkgName[dir]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			sf.imports[name] = dir
		}
	}
	return files, err
}

// typeKey names a type as "dir.Name"; typeOf resolves a type expression in
// sf to one ("" for anything but a named module type).
func typeKey(dir, name string) string { return dir + "." + name }

func (sf *srcFile) typeOf(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return sf.typeOf(e.X)
	case *ast.Ident:
		if e.IsExported() {
			return typeKey(sf.dir, e.Name)
		}
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok && sf.imports[x.Name] != "" {
			return typeKey(sf.imports[x.Name], e.Sel.Name)
		}
	}
	return ""
}

func takeCensus() (*census, error) {
	files, err := parseTree()
	if err != nil {
		return nil, err
	}
	c := &census{members: map[string]map[string]bool{}}
	fieldType := map[string]map[string]string{} // struct type -> field -> type
	options := map[string][]string{}            // *Config/*Options type -> exported fields
	alias := map[string]string{}                // type alias -> its type
	type fn struct{ key, name string }
	var exported []fn
	for _, sf := range files {
		for _, d := range sf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil {
					recv = strings.TrimPrefix(sf.typeOf(d.Recv.List[0].Type), sf.dir+".")
					if recv == "" { // unexported receiver
						recv = "?"
					}
				}
				if isOptions(recv) {
					c.addMember(sf, recv, d.Name.Name)
				}
				if !sf.test && d.Name.IsExported() && strings.HasPrefix(sf.dir, "internal/") &&
					!(d.Recv != nil && standardMethods[d.Name.Name]) {
					key := d.Name.Name
					if recv != "" {
						key = recv + "." + key
					}
					exported = append(exported, fn{sf.dir + "." + key, d.Name.Name})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok || sf.test {
						continue
					}
					if ts.Assign.IsValid() {
						alias[typeKey(sf.dir, ts.Name.Name)] = sf.typeOf(ts.Type)
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					tk := typeKey(sf.dir, ts.Name.Name)
					fieldType[tk] = map[string]string{}
					for _, fld := range st.Fields.List {
						for _, n := range fld.Names {
							fieldType[tk][n.Name] = sf.typeOf(fld.Type)
							if ts.Name.IsExported() && n.IsExported() && isOptions(ts.Name.Name) &&
								(sf.dir == "swishmem" || strings.HasPrefix(sf.dir, "internal/")) && sf.dir != "internal/wire" {
								options[tk] = append(options[tk], n.Name)
							}
							if isOptions(ts.Name.Name) {
								c.addMember(sf, ts.Name.Name, n.Name)
							}
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}    // identifiers some expression names
	set := map[string]bool{}     // "type.Field" set somewhere
	setName := map[string]bool{} // field names set on a type the scan cannot name
	for _, sf := range files {
		if sf.test {
			continue
		}
		w := &setWalk{sf: sf, fieldType: fieldType, alias: alias, set: set, setName: setName,
			elided: map[*ast.CompositeLit]string{}}
		decl := map[*ast.Ident]bool{}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// slices.Clone names no module function.
				if x, ok := n.X.(*ast.Ident); ok && sf.stdlib[x.Name] {
					decl[n.Sel] = true
				}
			case *ast.FuncDecl:
				decl[n.Name] = true
				w.enter(n)
			case *ast.TypeSpec:
				decl[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					decl[id] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					decl[id] = true
				}
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							decl[id] = true
						}
					}
				}
				w.lit(n)
			case *ast.AssignStmt:
				w.assign(n.Tok, n.Lhs)
			case *ast.IncDecStmt:
				w.assign(token.ASSIGN, []ast.Expr{n.X})
			case *ast.IfStmt:
				w.ifs = append(w.ifs, n)
			case *ast.Ident:
				if !decl[n] {
					used[n.Name] = true
				}
			}
			return true
		})
	}

	for _, f := range exported {
		if !used[f.name] {
			c.funcs = append(c.funcs, f.key)
		}
	}
	for tk, fields := range options {
		for _, f := range fields {
			if !set[tk+"."+f] && !setName[f] {
				c.fields = append(c.fields, tk+"."+f)
			}
		}
	}
	sort.Strings(c.funcs)
	sort.Strings(c.fields)
	return c, nil
}

func isOptions(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")
}

func (c *census) addMember(sf *srcFile, typ, member string) {
	for _, k := range []string{typ, sf.f.Name.Name + "." + typ} {
		if c.members[k] == nil {
			c.members[k] = map[string]bool{}
		}
		c.members[k][member] = true
	}
}

// setWalk records the fields one file sets. vars is the type of each local
// name in the current function (receiver, parameters, declared and
// literal-initialised variables); ifs the if statements met so far in it;
// elided the element type of each {...} inside a slice, array or map literal.
type setWalk struct {
	sf           *srcFile
	fieldType    map[string]map[string]string
	alias        map[string]string
	set, setName map[string]bool
	vars         map[string]string
	ifs          []*ast.IfStmt
	elided       map[*ast.CompositeLit]string
}

func (w *setWalk) enter(fd *ast.FuncDecl) {
	w.vars, w.ifs = map[string]string{}, nil
	for _, fl := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
		if fl == nil {
			continue
		}
		for _, fld := range fl.List {
			for _, n := range fld.Names {
				w.vars[n.Name] = w.sf.typeOf(fld.Type)
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if n.Type != nil {
					w.vars[id.Name] = w.sf.typeOf(n.Type)
				} else if i < len(n.Values) {
					w.vars[id.Name] = w.valueType(n.Values[i])
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
				for i, l := range n.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						w.vars[id.Name] = w.valueType(n.Rhs[i])
					}
				}
			}
		}
		return true
	})
}

// valueType is the type of a T{...} or &T{...} expression, or of a copy of
// a name whose type is known; else "".
func (w *setWalk) valueType(e ast.Expr) string {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	if cl, ok := e.(*ast.CompositeLit); ok && cl.Type != nil {
		return w.resolve(w.sf.typeOf(cl.Type))
	}
	return w.exprType(e)
}

func (w *setWalk) resolve(t string) string {
	if a, ok := w.alias[t]; ok {
		return a
	}
	return t
}

// exprType resolves a local name or a field chain on one to its type.
func (w *setWalk) exprType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return w.resolve(w.vars[e.Name])
	case *ast.StarExpr:
		return w.exprType(e.X)
	case *ast.ParenExpr:
		return w.exprType(e.X)
	case *ast.SelectorExpr:
		if t := w.exprType(e.X); t != "" {
			return w.resolve(w.fieldType[t][e.Sel.Name])
		}
	}
	return ""
}

// lit records the keys of a composite literal. ast.Inspect meets a literal
// before its elements, so an element whose type is elided finds it in
// w.elided.
func (w *setWalk) lit(cl *ast.CompositeLit) {
	typ, elt := w.elided[cl], ""
	switch t := cl.Type.(type) {
	case nil:
	case *ast.ArrayType:
		elt = w.sf.typeOf(t.Elt)
	case *ast.MapType:
		elt = w.sf.typeOf(t.Value)
	default:
		typ = w.resolve(w.sf.typeOf(t))
	}
	for _, e := range cl.Elts {
		kv, keyed := e.(*ast.KeyValueExpr)
		if keyed {
			if id, ok := kv.Key.(*ast.Ident); ok && elt == "" {
				if typ != "" {
					w.set[typ+"."+id.Name] = true
				} else {
					w.setName[id.Name] = true
				}
			}
			e = kv.Value
		} else if typ != "" { // positional: every field is set
			for f := range w.fieldType[typ] {
				w.set[typ+"."+f] = true
			}
		}
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = u.X
		}
		if sub, ok := e.(*ast.CompositeLit); ok && sub.Type == nil && elt != "" {
			w.elided[sub] = elt
		}
	}
}

func (w *setWalk) assign(tok token.Token, lhs []ast.Expr) {
	if tok == token.DEFINE {
		return
	}
	for _, l := range lhs {
		sel, ok := l.(*ast.SelectorExpr)
		if !ok || w.defaulting(sel) {
			continue
		}
		if t := w.exprType(sel.X); t != "" {
			w.set[t+"."+sel.Sel.Name] = true
		} else {
			w.setName[sel.Sel.Name] = true
		}
	}
}

// defaulting reports whether sel is assigned inside an if statement whose
// condition reads the same selector.
func (w *setWalk) defaulting(sel *ast.SelectorExpr) bool {
	want := selText(sel)
	for _, is := range w.ifs {
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
