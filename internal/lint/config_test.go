package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// TestDefaultConfigNamesLiveSymbols fails on any DefaultConfig entry
// that names a symbol the module no longer defines. The passes only
// look entries up, so a field, type or function that is renamed or
// deleted leaves an entry that silently guards nothing. Covered: the
// GuardedFields keys and guards, NonceRequestTypes, and the Go
// functions in MintFuncs, WALAppendFuncs and GuardExemptFuncs (AP
// action labels such as rcv-buyreply are not Go identifiers and are
// skipped). specbind reports stale WireOnly/SpecOnly kinds itself.
func TestDefaultConfigNamesLiveSymbols(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; run without -short")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	cfg := DefaultConfig()

	// split cuts an entry at the first sep after its import path.
	split := func(entry string, sep byte) (*Package, string) {
		slash := strings.LastIndexByte(entry, '/')
		i := strings.IndexByte(entry[slash+1:], sep)
		if i < 0 {
			return nil, ""
		}
		i += slash + 1
		return byPath[entry[:i]], entry[i+1:]
	}
	// isField reports whether "importpath.Type.field" names a field of
	// a struct type declared in the module.
	isField := func(entry string) bool {
		pkg, rest := split(entry, '.')
		typ, name, ok := strings.Cut(rest, ".")
		if pkg == nil || !ok {
			return false
		}
		obj := pkg.Types.Scope().Lookup(typ)
		if obj == nil {
			return false
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			return false
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == name {
				return true
			}
		}
		return false
	}

	fields := make([]string, 0, len(cfg.GuardedFields))
	for f := range cfg.GuardedFields {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	for _, f := range fields {
		if !isField(f) {
			t.Errorf("GuardedFields key %q names no struct field", f)
		}
		for _, g := range cfg.GuardedFields[f] {
			if !isField(strings.TrimSuffix(g, ":W")) {
				t.Errorf("GuardedFields[%q] guard %q names no struct field", f, g)
			}
		}
	}

	for _, typ := range cfg.NonceRequestTypes {
		if pkg, name := split(typ, '.'); pkg == nil || pkg.Types.Scope().Lookup(name) == nil {
			t.Errorf("NonceRequestTypes entry %q names no type", typ)
		}
	}

	// Function entries match a declaration's name whatever its
	// receiver, as the passes match them.
	declared := func(pkg *Package, name string) bool {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
					return true
				}
			}
		}
		return false
	}
	for _, list := range []struct {
		name    string
		entries []string
	}{
		{"MintFuncs", cfg.MintFuncs},
		{"WALAppendFuncs", cfg.WALAppendFuncs},
		{"GuardExemptFuncs", cfg.GuardExemptFuncs},
	} {
		for _, e := range list.entries {
			pkg, name := split(e, ':')
			if name != "" && !token.IsIdentifier(name) {
				continue // an AP action label, not a Go function
			}
			if pkg == nil || !declared(pkg, name) {
				t.Errorf("%s entry %q names no function", list.name, e)
			}
		}
	}
}
