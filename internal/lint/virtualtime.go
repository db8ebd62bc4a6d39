package lint

import (
	"go/ast"
	"strings"
)

// VirtualTime enforces the engine's determinism invariant: chaos runs replay
// bit-for-bit from a seed, so deterministic code (the virtual-time simulator
// and everything scheduled on it — internal/exec, internal/faults,
// internal/sim, internal/workload and its placement rules, internal/cache)
// must never read the wall clock or draw from unseeded randomness. The
// analyzer is enforced repo-wide so nothing non-deterministic creeps in
// behind a package boundary; the one legitimate wall-clock consumer
// (benchfig's operator-facing progress timing) carries //lint:ignore
// annotations.
// _test.go files are never loaded, so tests are exempt by construction.
//
// The real-time serving layer — internal/server and internal/admission —
// is exempt as a whole: it sits between wall-clock network clients and the
// deterministic engine, and queue timeouts, Retry-After hints, and drain
// deadlines are wall-clock quantities by design. The boundary is the Host
// pump: everything submitted through it still runs in virtual time.
var VirtualTime = &Analyzer{
	Name: "virtualtime",
	Doc:  "forbid wall-clock time and unseeded randomness in deterministic code",
	Run:  runVirtualTime,
}

// wallClockFuncs are the package time functions that read or wait on the
// real clock. Types and constants (time.Duration, time.Millisecond) remain
// legal: virtual time is *measured* in time.Duration.
var wallClockFuncs = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true,
	"Since": true, "Until": true,
}

// seededRandFuncs are the math/rand constructors that take an explicit seed
// or source and therefore stay reproducible.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// virtualTimeExemptPkg reports whether the package is part of the wall-clock
// serving layer (see the analyzer doc). Matching by path suffix or package
// name covers both the real packages and their golden-test fixtures.
func virtualTimeExemptPkg(pkg *Package) bool {
	for _, name := range []string{"server", "admission"} {
		if strings.HasSuffix(pkg.Path, "/"+name) || pkg.Types.Name() == name {
			return true
		}
	}
	return false
}

func runVirtualTime(p *Pass) {
	for _, pkg := range p.Prog.Packages {
		if virtualTimeExemptPkg(pkg) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pkg.Info, call)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				if _, _, isMeth := receiverOf(fn); isMeth {
					// Methods on *rand.Rand / *time.Timer operate on values whose
					// construction was already checked.
					return true
				}
				switch fn.Pkg().Path() {
				case "time":
					if wallClockFuncs[fn.Name()] {
						p.Reportf(call.Pos(),
							"time.%s reads the wall clock; deterministic code must use virtual sim time (sim.Proc.Now/Hold)",
							fn.Name())
					}
				case "math/rand", "math/rand/v2":
					if !seededRandFuncs[fn.Name()] {
						p.Reportf(call.Pos(),
							"rand.%s draws from an unseeded global source; use a seeded *rand.Rand (rand.New(rand.NewSource(seed))) so chaos runs replay bit-for-bit",
							fn.Name())
					}
				}
				return true
			})
		}
	}
}
