// Package critical names the determinism-critical packages of the
// flowrank repository: the packages whose output feeds the bit-identical
// cross-worker comparison contract (stream merge, flow tables, network
// allocation, inversion, metrics, reports, experiment figures, and the
// monitor pipeline, which decides the sampling rate and the NetFlow
// export bytes). The maporder and wallclock analyzers enforce their rules
// only inside these packages; pacing (source), the daemon, commands and
// tests are exempt — they are allowed to read wall clocks and iterate
// maps freely.
package critical

import "go/types"

// packages is keyed by package name: the testdata suites reproduce the
// package names, and no two packages in the repository share a name.
var packages = map[string]bool{
	"stream":      true,
	"flowtable":   true,
	"netsample":   true,
	"invert":      true,
	"metrics":     true,
	"report":      true,
	"experiments": true,
	"pipeline":    true,
}

// Is reports whether pkg is determinism-critical.
func Is(pkg *types.Package) bool { return packages[pkg.Name()] }
