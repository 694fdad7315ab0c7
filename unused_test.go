package repro

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
	"testing"
)

// unusedKept lists the exported functions and methods that no non-test code
// references and that stay on purpose, each with the reason: a test helper
// other packages' tests share, a chaos driver its scenario test runs, or a
// promise of the repro package's public surface. TestUnused fails on any
// other unreferenced export, and on an entry here that is referenced again
// or gone.
var unusedKept = map[string]string{
	// Test helpers.
	"anchor.MustBuildIndex":    "test helper: BuildIndex for known-valid graphs",
	"cache.Cache.States":       "test helper: the engine's memo and footprint tests read the live cached states",
	"engine.MustNewSharded":    "test helper: NewSharded for known-valid inputs",
	"obs.Counter.Value":        "test helper: reads a counter without rendering the registry",
	"obs.Histogram.Count":      "test helper: reads a histogram's count without rendering the registry",
	"obs.ParseText":            "test helper: the strict exposition parser every /metrics test reads through",
	"particle.MustNew":         "test helper: New for known-valid inputs",
	"rng.Source.Shuffle":       "test helper: the reference-model tests shuffle arrival order with it",
	"server.New":               "test helper: NewWith under the zero Config",
	"server.Server.Handler":    "test helper: HandlerWith under the zero HandlerConfig",
	"sim.MustNewInjector":      "test helper: NewInjector for known-valid inputs",
	"symbolic.MustNew":         "test helper: New for known-valid inputs",
	"sim/chaos.Run":            "chaos driver: crash at random points (make chaos)",
	"sim/chaos.RunPeerFaults":  "chaos driver: two-node kill/partition/heal (make chaos)",
	"sim/chaos.RunShardFaults": "chaos driver: per-shard disk faults (make chaos)",

	// Promises of the repro package.
	"anchor.Table.Add":             "repro.Table: builds a table by hand, posting by posting",
	"anchor.Table.Clear":           "repro.Table: empties a hand-built table",
	"anchor.Table.RemoveObject":    "repro.Table: drops one object from a hand-built table",
	"anchor.Table.HasObject":       "repro.Table: reads a Preprocess answer",
	"anchor.Table.Len":             "repro.Table: reads a Preprocess answer",
	"anchor.Table.Objects":         "repro.Table: reads a Preprocess answer",
	"anchor.Table.TotalProbOf":     "repro.Table: reads a Preprocess answer",
	"baseline.SM.KNNQuery":         "repro.Baseline: the symbolic model's kNN answer, beside its range answer",
	"engine.Sharded.Trajectory":    "repro.System: an object's past track under KeepHistory (repro.TrajectoryPoint)",
	"engine.System.Expire":         "repro.System: ages out objects that left the building (population churn)",
	"engine.System.PTKNNQuery":     "repro.System: probabilistic threshold kNN, pinned by the summaries golden",
	"engine.world.ParticleBudget":  "repro.System: the read side of SetParticleBudget",
	"floorplan.Plan.Door":          "repro.FloorPlan: lookup by ID, beside Room and Hallway",
	"floorplan.Plan.Link":          "repro.FloorPlan: lookup by ID, beside Room and Hallway",
	"geom.Circle.OverlapsSegment":  "repro.Circle: geometry vocabulary",
	"geom.Point.Add":               "repro.Point: geometry vocabulary",
	"geom.Point.Scale":             "repro.Point: geometry vocabulary",
	"geom.Segment.Midpoint":        "repro.Segment: geometry vocabulary",
	"model.ResultSet.Clone":        "repro.ResultSet: copies a query answer",
	"query.ContinuousRange.Result": "repro.ContinuousRange: the monitor's current membership",
	"repro.BuildWalkGraph":         "builds a plan's walking graph without a System",
	"repro.DecodeDeployment":       "reads the deployment JSON Deployment.MarshalJSON writes",
	"repro.DecodePlan":             "reads the floor-plan JSON Plan.MarshalJSON writes",
	"repro.DeployUniform":          "error-returning twin of MustDeployUniform",
	"repro.NewDeployment":          "builds a deployment from an explicit reader list",
	"repro.NewFaultInjector":       "builds a repro.FaultInjector",
	"repro.NewPlanBuilder":         "builds a floor plan room by room",
	"repro.NewSimulator":           "error-returning twin of MustNewSimulator",
	"repro.NewSystem":              "error-returning twin of MustNewSystem",
	"repro.RandomOffice":           "random valid layouts for testing a deployment across geometries",
	"repro.RectFromCorners":        "geometry vocabulary",
	"repro.Seg":                    "geometry vocabulary",
	"rfid.Sensor.Offline":          "repro.Sensor: reader outages of a simulated stream",
	"rfid.Sensor.SetOffline":       "repro.Sensor: reader outages of a simulated stream",
	"rfid.Sensor.SecondMissProb":   "repro.Sensor: the per-second miss model",
	"sim.Injector.Apply":           "repro.FaultInjector: applies scheduled reader faults",
	"sim.Injector.Drain":           "repro.FaultInjector: releases held-back readings",
	"sim.Injector.Offline":         "repro.FaultInjector: the readers currently down",
	"sim.Injector.Stats":           "repro.FaultInjector: what it injected",
	"sim.Simulator.Away":           "repro.Simulator: ground truth under churn",
	"sim.Simulator.Graph":          "repro.Simulator: the graph it walks",
	"sim.Simulator.InRoom":         "repro.Simulator: ground truth",
	"sim.Simulator.Run":            "repro.Simulator: a batch of seconds at once",
	"walkgraph.Graph.Degree":       "repro.WalkGraph: graph navigation",
	"walkgraph.Graph.DistBetween":  "repro.WalkGraph: network distance between two locations",
	"walkgraph.Graph.Nodes":        "repro.WalkGraph: graph navigation",
	"walkgraph.Graph.OtherEnd":     "repro.WalkGraph: graph navigation",
}

// TestUnused lists the exported functions and methods of this module that no
// non-test file of the module or of the benchmark harness (bench/, its own
// module) references, and fails when one of them is not in unusedKept. A
// method counts as referenced when its type satisfies an interface the
// program uses and the interface declares it: the program calls it through
// the interface (sort.Interface, io.Writer, wal.FS, the engine's Serving and
// Partition, ...). Under -v (`make unused`) it prints the list as a markdown
// table, marking the exports the repro package promises: its own functions
// and the methods of the types it re-exports.
func TestUnused(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library it imports from source")
	}
	prog, err := loadProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	unused := prog.unused()

	var b strings.Builder
	b.WriteString("| unreferenced export | promised by repro | kept because |\n|---|:-:|---|\n")
	seen := map[string]bool{}
	for _, u := range unused {
		seen[u.name] = true
		why, ok := unusedKept[u.name]
		if !ok {
			t.Errorf("%s: exported, but no non-test code references it; delete it, or list it in unusedKept with the reason it stays", u.name)
			why = "**not kept**"
		}
		promised := ""
		if u.promised {
			promised = "yes"
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", u.name, promised, why)
	}
	fmt.Fprintf(&b, "| **total** | | **%d** |\n", len(unused))
	for name := range unusedKept {
		if !seen[name] {
			t.Errorf("unusedKept lists %s, which non-test code references or which is gone; drop the entry", name)
		}
	}
	if testing.Verbose() {
		fmt.Print(b.String())
	}
}

// program is every non-test package of the module and of the benchmark
// harness, type-checked together so that an object has one identity across
// packages; the standard library is type-checked from source as imported.
type program struct {
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*progPkg // by import path
}

type progPkg struct {
	path    string
	files   []*ast.File
	harness bool // under bench/: references count, its exports are not listed
	types   *types.Package
	info    *types.Info
}

// loadProgram parses the non-test files of every package under root (the
// module root) and type-checks them.
func loadProgram(root string) (*program, error) {
	fset := token.NewFileSet()
	p := &program{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*progPkg{},
	}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		} else if err != nil {
			return err
		}
		rel := filepath.ToSlash(dir)
		pk := &progPkg{path: "repro", harness: rel == "bench" || strings.HasPrefix(rel, "bench/")}
		if rel != "." {
			pk.path += "/" + rel
		}
		for _, f := range bp.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(dir, f), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pk.files = append(pk.files, af)
		}
		p.pkgs[pk.path] = pk
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, pk := range p.pkgs {
		if _, err := p.check(pk); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *program) Import(path string) (*types.Package, error) {
	return p.ImportFrom(path, "", 0)
}

func (p *program) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pk := p.pkgs[path]; pk != nil {
		return p.check(pk)
	}
	return p.std.ImportFrom(path, dir, mode)
}

// check type-checks pk once, its program imports first.
func (p *program) check(pk *progPkg) (*types.Package, error) {
	if pk.types != nil {
		return pk.types, nil
	}
	pk.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: p}
	tp, err := conf.Check(pk.path, p.fset, pk.files, pk.info)
	if err != nil {
		return nil, err
	}
	pk.types = tp
	return tp, nil
}

// unusedExport is one exported function or method nothing references.
type unusedExport struct {
	name     string
	promised bool
}

// unused returns the module's unreferenced exported functions and methods,
// sorted by name.
func (p *program) unused() []unusedExport {
	used := map[*types.Func]bool{}
	for _, pk := range p.pkgs {
		for _, obj := range pk.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}
	p.markInterfaceMethods(used)
	promised := p.promisedTypes()

	var out []unusedExport
	for _, pk := range p.pkgs {
		if pk.harness {
			continue
		}
		for _, f := range pk.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := pk.info.Defs[fd.Name].(*types.Func)
				if used[fn] {
					continue
				}
				out = append(out, unusedExport{name: exportName(fn), promised: pk.path == "repro" || promisesMethod(promised, fn)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// markInterfaceMethods marks, for every interface the program uses and every
// program type that satisfies it, the methods the interface declares: the
// program may call them through the interface, where no identifier names
// them.
func (p *program) markInterfaceMethods(used map[*types.Func]bool) {
	var ifaces []*types.Interface
	seen := map[types.Type]bool{}
	var collect func(t types.Type)
	collect = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if it, ok := t.Underlying().(*types.Interface); ok {
				collect(it)
			}
		case *types.Interface:
			if t.NumMethods() > 0 {
				ifaces = append(ifaces, t)
			}
		case *types.Signature:
			for i := 0; i < t.Params().Len(); i++ {
				collect(t.Params().At(i).Type())
			}
			for i := 0; i < t.Results().Len(); i++ {
				collect(t.Results().At(i).Type())
			}
		case *types.Pointer:
			collect(t.Elem())
		case *types.Slice:
			collect(t.Elem())
		case *types.Array:
			collect(t.Elem())
		case *types.Map:
			collect(t.Key())
			collect(t.Elem())
		case *types.Chan:
			collect(t.Elem())
		}
	}
	for _, pk := range p.pkgs {
		for _, tv := range pk.info.Types {
			collect(tv.Type)
		}
		for _, obj := range pk.info.Defs {
			if obj != nil {
				collect(obj.Type())
			}
		}
	}
	// The standard library's dynamic checks: interfaces its functions test a
	// value for, which no signature names.
	for _, name := range []string{"fmt.Stringer", "fmt.Formatter", "encoding/json.Marshaler", "encoding/json.Unmarshaler", "encoding.TextMarshaler", "encoding.TextUnmarshaler", "flag.Value"} {
		dot := strings.LastIndex(name, ".")
		if pkg, err := p.std.Import(name[:dot]); err == nil {
			collect(pkg.Scope().Lookup(name[dot+1:]).Type())
		}
	}
	errT := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errT)), false))
	collect(types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete()) // errors.Is and errors.As

	for _, pk := range p.pkgs {
		scope := pk.types.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			for _, it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if fn, ok := lookupMethod(ptr, m.Pkg(), m.Name()); ok {
						used[fn.Origin()] = true
					}
				}
			}
		}
	}
}

// promisedTypes returns the named types the repro package re-exports as
// aliases.
func (p *program) promisedTypes() []*types.Named {
	var out []*types.Named
	scope := p.pkgs["repro"].types.Scope()
	for _, n := range scope.Names() {
		tn, ok := scope.Lookup(n).(*types.TypeName)
		if !ok || !tn.IsAlias() {
			continue
		}
		t := types.Unalias(tn.Type())
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			out = append(out, named)
		}
	}
	return out
}

// promisesMethod reports whether fn is a method of a promised type, its own
// or promoted from an embedded field.
func promisesMethod(promised []*types.Named, fn *types.Func) bool {
	if fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	for _, named := range promised {
		if m, ok := lookupMethod(types.NewPointer(named), fn.Pkg(), fn.Name()); ok && m.Origin() == fn {
			return true
		}
	}
	return false
}

func lookupMethod(t types.Type, pkg *types.Package, name string) (*types.Func, bool) {
	obj, _, _ := types.LookupFieldOrMethod(t, false, pkg, name)
	fn, ok := obj.(*types.Func)
	return fn, ok
}

// exportName spells fn as package.Func or package.Type.Method, the package
// by its path below the module's internal/ directory.
func exportName(fn *types.Func) string {
	pkg := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), "repro/"), "internal/")
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return pkg + "." + fn.Name()
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return pkg + "." + t.(*types.Named).Obj().Name() + "." + fn.Name()
}
