package server

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
)

// countKnobs counts the independently settable values of a configuration
// type: its exported leaf fields, recursing into struct-typed fields.
func countKnobs(t reflect.Type) int {
	n := 0
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch {
		case !f.IsExported():
		case f.Type.Kind() == reflect.Struct:
			n += countKnobs(f.Type)
		default:
			n++
		}
	}
	return n
}

// TestKnobs counts the settable values of every configuration a deployment
// assembles: the engine's, the server's, its handler's and a cluster node's.
// Under -v (`make knobs`) it prints the counts as a markdown table, the
// before-and-after figure a change that adds or removes an option quotes.
func TestKnobs(t *testing.T) {
	rows := []struct {
		name string
		typ  reflect.Type
	}{
		{"engine.Config", reflect.TypeOf(engine.Config{})},
		{"server.Config", reflect.TypeOf(Config{})},
		{"server.HandlerConfig", reflect.TypeOf(HandlerConfig{})},
		{"cluster.Config", reflect.TypeOf(cluster.Config{})},
	}
	var b strings.Builder
	b.WriteString("| config | settable values |\n|---|---:|\n")
	total := 0
	for _, r := range rows {
		n := countKnobs(r.typ)
		if n == 0 {
			t.Errorf("%s has no settable values", r.name)
		}
		total += n
		fmt.Fprintf(&b, "| %s | %d |\n", r.name, n)
	}
	fmt.Fprintf(&b, "| **total** | **%d** |\n", total)
	if testing.Verbose() {
		fmt.Print(b.String())
	}
}
